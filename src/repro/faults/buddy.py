"""Buddy (neighbor-replicated) in-memory checkpointing.

Local checkpoints (:class:`~repro.faults.recovery._Checkpoint`) die
with the rank that took them, so a rank crash would otherwise always
escalate to a global restart.  The buddy scheme gives every rank an
off-node partner (:meth:`~repro.comm.topology.CartTopology.buddy_rank`)
that holds a replica of its finest-level solution bricks: at every
checkpoint the coordinated snapshot is *shipped*: copied into the
buddy's store once its header — priced, checksummed and
retransmission-protected like halo traffic's — is delivered, so
replication cost is visible in the message accounting and a message
fault striking a snapshot in flight is healed by the normal retry
machinery before anything is stored.

Replica headers travel with ``level=-1`` and ``direction=None``, so
level- or direction-pinned fault specs never strike them by accident —
only a spec written against the buddy band can.  Replicas are keyed by
the *protected* rank, and a replica hosted on a rank that later dies
is invalidated: blank respawn memory holds no state, exactly like a
real ULFM respawn.
"""

from __future__ import annotations

import numpy as np

from repro.comm.exchange import ResilientChannel, payload_checksum
from repro.instrument import Recorder

#: tag for buddy snapshot shipments — its own band, above the halo
#: direction tags (0..26), the SubComm bands (100+), and the
#: agglomeration transfer band (10_000+)
BUDDY_TAG = 20_000


class BuddyCheckpointer(ResilientChannel):
    """Ships per-rank snapshot replicas to buddy ranks and serves them
    back during recovery.

    One instance covers the whole (lockstep-simulated) communicator:
    :meth:`ship` copies every rank's snapshot to its partner in a single
    collective-style phase (all headers posted, then all received), and
    :meth:`snapshot_for` hands a dead rank's replica to the repair
    path.  The store maps *protected* rank to ``(cycle, payload)`` so
    recovery can check the replica is from the same coordinated
    checkpoint the survivors are rolling back to.
    """

    def __init__(
        self,
        comm,
        topology,
        recorder: Recorder | None = None,
        injector=None,
        max_retries: int = 3,
        tracer=None,
    ) -> None:
        super().__init__(
            comm, recorder=recorder, injector=injector,
            max_retries=max_retries, tracer=tracer,
        )
        self.buddy_of = [topology.buddy_rank(r) for r in range(comm.size)]
        #: replica store on each buddy: protected rank -> (cycle, payload)
        self._store: dict[int, tuple[int, np.ndarray]] = {}
        self.shipped_bytes = 0

    # ------------------------------------------------------------------
    def ship(self, cycle: int, x_by_rank: list[np.ndarray]) -> int:
        """Replicate every rank's snapshot onto its buddy.

        ``x_by_rank`` is the coordinated checkpoint the driver just
        took (one finest-level solution array per rank); each rank's
        copy travels to ``buddy_of[rank]`` tagged :data:`BUDDY_TAG` at
        ``level=-1``.  Returns the bytes shipped this round.
        """
        size = self.comm.size
        total = 0
        with self.tracer.span("buddy-checkpoint", cycle=int(cycle), ranks=size):
            for rank in range(size):
                x = x_by_rank[rank]
                self._send(
                    -1, rank, self.buddy_of[rank], BUDDY_TAG, None, x.nbytes,
                    None, checksum=(
                        None if self.injector is None else payload_checksum(x)
                    ),
                )
            for rank in range(size):
                buddy = self.buddy_of[rank]
                x = x_by_rank[rank]
                self._receive(
                    -1, buddy, rank, BUDDY_TAG, x.nbytes, lambda: x,
                    context=(
                        f"rank {buddy}'s replica of rank {rank}'s "
                        f"cycle-{cycle} snapshot"
                    ),
                    what="buddy snapshot",
                )
                self._store[rank] = (int(cycle), x.copy())
                total += int(x.nbytes)
                if self.recorder is not None:
                    self.recorder.fault(
                        "buddy_checkpoint", vcycle=int(cycle), level=-1,
                        rank=buddy, src=rank, tag=BUDDY_TAG,
                        nbytes=int(x.nbytes),
                    )
        self.shipped_bytes += total
        return total

    # ------------------------------------------------------------------
    def invalidate(self, dead) -> list[int]:
        """Drop replicas hosted on dead ranks; return who lost coverage.

        A replica lives in its host buddy's memory, so it dies with the
        host: after ``invalidate``, :meth:`snapshot_for` for the listed
        ranks returns ``None`` and recovery must escalate past the
        buddy rung for them.
        """
        dead = set(int(r) for r in dead)
        lost = sorted(
            r for r in list(self._store) if self.buddy_of[r] in dead
        )
        for r in lost:
            del self._store[r]
        return lost

    def snapshot_for(self, rank: int) -> tuple[int, np.ndarray] | None:
        """The ``(cycle, payload)`` replica protecting ``rank``, if alive."""
        return self._store.get(int(rank))
