"""Rank-resolved communication: the rank x rank traffic matrix.

:func:`traffic_matrix` reads the communicator's own ledger
(:attr:`~repro.comm.simmpi.SimComm.ledger`), which every transmission
enters whether its header was posted or it was derived from an
exchange plan — so the matrix is exact for any solve: traced or not,
fault-free or faulted (retransmissions counted), agglomerated levels
included (their sub-communicators keep global rank ids on the root
ledger).

No span is read: posted headers leave none of their own (their
faults appear as instants inside the ``exchange`` span that posted
them), and the per-rank timelines
(:meth:`~repro.obs.tracer.Tracer.child`) of the pid-per-rank Chrome
export hold only what ranks do on their own: agglomeration
``unpack`` copies and end-of-solve ``drain-stale`` discards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class CommMatrix:
    """Rank x rank traffic, totalled and per multigrid level.

    ``messages[src][dst]`` counts transmissions (retransmissions
    included, matching :class:`~repro.comm.simmpi.SimComm`'s
    ``sent_messages``/``bytes_by_pair`` accounting); ``nbytes`` sums
    payload bytes the same way; ``retransmissions`` counts only the
    resends.  ``level_messages``/``level_nbytes`` split the totals by
    the exchange's multigrid level (-1 when the caller did not tag one:
    buddy checkpoint replicas).
    """

    size: int
    messages: np.ndarray
    nbytes: np.ndarray
    retransmissions: np.ndarray
    level_messages: dict[int, np.ndarray] = field(default_factory=dict)
    level_nbytes: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def total_messages(self) -> int:
        return int(self.messages.sum())

    @property
    def total_bytes(self) -> int:
        return int(self.nbytes.sum())

    @property
    def total_retransmissions(self) -> int:
        return int(self.retransmissions.sum())

    def levels(self) -> list[int]:
        """The multigrid levels traffic was observed on, ascending."""
        return sorted(self.level_messages)


def traffic_matrix(comm) -> CommMatrix:
    """The :class:`CommMatrix` of everything ``comm`` (a root
    :class:`~repro.comm.simmpi.SimComm`) has sent."""
    n = comm.size
    shape = (n, n)
    matrix = CommMatrix(
        n, *(np.zeros(shape, dtype=np.int64) for _ in range(3))
    )
    for (lev, src, dst), (messages, nbytes, resends) in comm.ledger.items():
        if lev not in matrix.level_messages:
            matrix.level_messages[lev] = np.zeros(shape, dtype=np.int64)
            matrix.level_nbytes[lev] = np.zeros(shape, dtype=np.int64)
        matrix.level_messages[lev][src, dst] += messages
        matrix.level_nbytes[lev][src, dst] += nbytes
        matrix.messages[src, dst] += messages
        matrix.nbytes[src, dst] += nbytes
        matrix.retransmissions[src, dst] += resends
    return matrix
