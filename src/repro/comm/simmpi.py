"""Single-process simulated MPI: ranks, their fate and their traffic.

The solver's exchange follows the paper's pattern — ``MPI_Isend`` /
``MPI_Irecv`` with 26 neighbours — but neither the bytes nor the
headers of a message pass through a mailbox here: each consumer (the
halo exchange, the agglomeration transfers, the buddy checkpoints)
copies its data itself, from the sender's memory into the receiver's,
and its :class:`~repro.comm.exchange.ResilientChannel` keeps the
header it posts — size, the sender-side CRC32 when a fault injector is
attached, and the fault the injector drew for it — until the matching
receive works out, in place, what the wire did to it.

``SimComm`` keeps what outlives a receive: the traffic ledger, the
headers left over on an envelope (a duplicate's extra copy, or what an
aborted phase had posted), which the next receive on that envelope —
or the end-of-solve drain — judges stale, and the dead-rank semantics
of ULFM.
"""

from __future__ import annotations

import numpy as np


class UnmatchedReceiveError(RuntimeError):
    """A receive waited on an envelope that was never sent.

    Ranks run in lockstep phases, every send posted before any receive,
    so this is always a protocol bug (mismatched send/receive
    bookkeeping), hence the 'deadlock' wording; the message names the
    direction and level being filled.
    """


class RankDeadError(RuntimeError):
    """An operation touched a crashed rank's endpoint.

    The simulator's analogue of ``MPI_ERR_PROC_FAILED``: after
    :meth:`SimComm.kill`, every send to, receive from (both checked by
    the channel), or collective including the dead rank raises this — so the failure surfaces to
    every peer that touches the victim, exactly as ULFM error handlers
    deliver it.  The recovery driver catches it, agrees on the dead set
    (:meth:`SimComm.agree_dead`) and repairs the communicator
    (:meth:`SimComm.repair`); it never escapes a resilient solve.
    """

    def __init__(self, rank: int, op: str = "") -> None:
        self.rank = int(rank)
        msg = f"rank {rank} is dead"
        if op:
            msg += f" ({op})"
        super().__init__(msg)


class SimComm:
    """Ranks, their fate and their traffic.

    No header is matched here: a channel works out each header's fate
    itself.  What the communicator keeps is what outlives a receive —
    the ledger, the headers left over on an envelope (a duplicate's
    extra copy, or what an aborted phase had posted) and the dead set.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"size must be positive: {size}")
        self.size = int(size)
        #: ``{(dst, src, tag): [nbytes, ...]}``: headers that outlived
        #: their receive, oldest first
        self._held: dict[tuple[int, int, int], list[int]] = {}
        #: the ledger's rows in first-send order: what posted headers
        #: sent, and a zero row per key a planned exchange first touched
        self._rows: dict[tuple[int, int, int], list[int]] = {}
        #: ``{id(traffic): [traffic, times]}``: each distinct traffic
        #: tuple :meth:`account_planned` was given, and how often
        self._planned: dict[int, list] = {}
        #: crashed endpoints; every operation touching one raises
        #: RankDeadError until repair() revives it
        self._dead: set[int] = set()
        self.repairs = 0

    def _check_rank(self, rank: int, what: str) -> None:
        if not 0 <= rank < self.size:
            raise ValueError(f"{what} {rank} out of range for size {self.size}")

    # ------------------------------------------------------------------
    # rank failure (ULFM-style)
    # ------------------------------------------------------------------
    def kill(self, rank: int) -> None:
        """Crash a rank's endpoint.

        Every subsequent operation touching it — sends to it, receives
        from it, collectives including it —
        raises :class:`RankDeadError` until :meth:`repair` revives it.
        """
        self._check_rank(rank, "crashed rank")
        self._dead.add(int(rank))

    def is_dead(self, rank: int) -> bool:
        return rank in self._dead

    def dead_ranks(self) -> tuple[int, ...]:
        return tuple(sorted(self._dead))

    def agree_dead(self) -> tuple[int, ...]:
        """Collective agreement on the dead set.

        The ``MPIX_Comm_agree`` analogue: in the lockstep simulation
        every survivor observes the same communicator state, so the
        agreed set is simply the sorted dead set.
        """
        return self.dead_ranks()

    def repair(self, revive=()) -> int:
        """ULFM-style communicator repair.

        Discards every held header (the revoke) and revives the given
        endpoints (the respawn analogue: same decomposition slot, blank
        memory).  Returns the number of purged headers.
        """
        purged = self.reset_in_flight()
        for rank in revive:
            self._dead.discard(int(rank))
        self.repairs += 1
        return purged

    @property
    def ledger(self) -> dict[tuple[int, int, int], list[int]]:
        """The traffic ledger: ``{(level, src, dst): [messages, bytes,
        retransmissions]}`` of every transmission (resends included in
        all three), whether its header was posted or it was derived
        from an exchange plan, in first-send order; ``level`` is -1
        where the caller gave none.  A fresh dict, expanded from the
        rows and the planned multiplicities when read."""
        out = {key: list(entry) for key, entry in self._rows.items()}
        for traffic, times in self._planned.values():
            for key, messages, nbytes in traffic:
                entry = out[key]
                entry[0] += messages * times
                entry[1] += nbytes * times
        return out

    def _total(self, column: int) -> int:
        """One ledger column summed over every row, unexpanded (a
        planned exchange retransmits nothing: column 2 is rows only)."""
        total = sum(entry[column] for entry in self._rows.values())
        if column < 2:
            for traffic, times in self._planned.values():
                total += times * sum(row[1 + column] for row in traffic)
        return total

    @property
    def sent_messages(self) -> int:
        return self._total(0)

    @property
    def sent_bytes(self) -> int:
        return self._total(1)

    @property
    def retransmissions(self) -> int:
        return self._total(2)

    @property
    def bytes_by_pair(self) -> dict[tuple[int, int], int]:
        """``{(src, dst): bytes sent}`` over all levels, in first-send order."""
        out: dict[tuple[int, int], int] = {}
        for (_, src, dst), (_, nbytes, _) in self.ledger.items():
            out[src, dst] = out.get((src, dst), 0) + nbytes
        return out

    def account_sends(self, traffic, resends: bool = False) -> None:
        """Enter ``((level, src, dst), messages, nbytes)`` rows in the
        ledger, in first-send order: a channel's posted headers.
        ``resends`` counts the messages as retransmissions too."""
        rows = self._rows
        for key, messages, nbytes in traffic:
            entry = rows.get(key)
            if entry is None:
                entry = rows[key] = [0, 0, 0]
            entry[0] += messages
            entry[1] += nbytes
            if resends:
                entry[2] += messages

    def account_planned(self, traffic: tuple) -> None:
        """Enter what a planned halo exchange — which posts nothing —
        sent: ``traffic`` is its plan's cached tuple of ``((level, src,
        dst), messages, nbytes)`` rows.  Its keys take their place in
        first-send order on first use; after that only the tuple's
        multiplicity grows."""
        run = self._planned.get(id(traffic))
        if run is None:
            for key, _, _ in traffic:
                self._rows.setdefault(key, [0, 0, 0])
            self._planned[id(traffic)] = [traffic, 1]
        else:
            run[1] += 1

    # ------------------------------------------------------------------
    # headers that outlive their receive
    # ------------------------------------------------------------------
    def hold(self, dst: int, src: int, tag: int, sizes) -> None:
        """Leave headers of ``sizes`` bytes on an envelope, after any
        already there."""
        if sizes:
            self._held.setdefault((dst, src, tag), []).extend(sizes)

    def take_held(self, dst: int, src: int, tag: int) -> list[int]:
        """Remove and return the sizes of an envelope's held headers,
        oldest first."""
        return self._held.pop((dst, src, tag), [])

    # ------------------------------------------------------------------
    # collectives (lockstep driver supplies all ranks' values at once)
    # ------------------------------------------------------------------
    def _check_reduction(self, values) -> None:
        """Raise :class:`RankDeadError` when any rank is dead — the
        collective is the guaranteed detection point for a crash, like
        ULFM's ``MPI_ERR_PROC_FAILED`` from a collective — and
        ``ValueError`` unless every rank contributed one value."""
        if self._dead:
            raise RankDeadError(
                min(self._dead), op="allreduce over a communicator with dead ranks"
            )
        if len(values) != self.size:
            raise ValueError(
                f"allreduce needs one value per rank: got {len(values)}, "
                f"size {self.size}"
            )

    def allreduce_max(self, values: list[float]) -> float:
        """MAX all-reduce over one contribution per rank.

        NaN-propagating (``np.max``): a poisoned local residual must
        surface globally for the solver's health checks, exactly as an
        ``MPI_MAX`` over a NaN does on real systems.
        """
        self._check_reduction(values)
        return float(np.max(values))

    def allreduce_sum(self, values: list[float]) -> float:
        """SUM all-reduce over one contribution per rank: Python's
        left-to-right sum (``np.sum`` adds pairwise from 8 values up
        and rounds differently)."""
        self._check_reduction(values)
        return float(sum(values))

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Held headers, over every envelope."""
        return sum(map(len, self._held.values()))

    def in_flight(self) -> dict[tuple[int, int, int], int]:
        """``{(dst, src, tag): held header count}``."""
        return {key: len(sizes) for key, sizes in self._held.items()}

    def reset_in_flight(self) -> int:
        """Discard every held header.

        The recovery path calls this after an unrecoverable exchange
        fault before rolling back — the analogue of revoking and
        re-creating a communicator so stale traffic from the aborted
        cycle cannot be mistaken for fresh data.  Returns the number of
        headers discarded.
        """
        n = self.pending
        self._held.clear()
        return n

    def assert_drained(self) -> None:
        """Raise if any posted header was never received.

        Called at the end of a solve: leftover headers mean mismatched
        send/receive bookkeeping even though results looked right.  The
        error names every leaking envelope by destination, source, and
        tag so the offending one is identifiable.
        """
        leftovers = self.in_flight()
        if leftovers:
            detail = "; ".join(
                f"dst={dst} src={src} tag={tag}: {n} pending"
                for (dst, src, tag), n in sorted(leftovers.items())
            )
            raise RuntimeError(
                f"undelivered headers remain on {len(leftovers)} "
                f"envelope(s): {detail}"
            )


class SubComm:
    """A communicator view over a subset of a parent :class:`SimComm`.

    The distributed-MPI analogue is ``MPI_Comm_split``: agglomerated
    coarse levels run their halo exchanges over the *active* ranks only,
    so the exchange layer needs a communicator whose local ranks
    ``0..n-1`` map onto the chosen global ranks.  Every header is
    accounted and held on the parent under global rank ids
    (:meth:`~repro.comm.exchange.ResilientChannel._envelope`), so
    ``sent_messages`` and ``bytes_by_pair`` stay truthful on
    agglomerated levels.

    Tags are shifted by ``tag_offset`` into a band reserved for this
    sub-communicator, mirroring MPI's guarantee that messages never
    cross communicators: the active exchange's direction tags ``0..26``
    must not share envelopes (and hence held headers) with the
    full-grid exchanges between the same rank pair.
    """

    def __init__(
        self, parent: SimComm, global_ranks, tag_offset: int
    ) -> None:
        ranks = tuple(int(r) for r in global_ranks)
        if not ranks:
            raise ValueError("SubComm needs at least one rank")
        if len(set(ranks)) != len(ranks):
            raise ValueError(f"duplicate ranks in SubComm: {ranks}")
        for r in ranks:
            parent._check_rank(r, "SubComm rank")
        if tag_offset < 0:
            raise ValueError(f"tag_offset must be non-negative: {tag_offset}")
        self.parent = parent
        self.global_ranks = ranks
        self.size = len(ranks)
        self.tag_offset = int(tag_offset)

    def global_rank(self, local: int) -> int:
        """Global id of communicator-local rank ``local``."""
        if not 0 <= local < self.size:
            raise ValueError(
                f"local rank {local} out of range for SubComm size {self.size}"
            )
        return self.global_ranks[local]

    # -- rank-failure view ----------------------------------------------
    def is_dead(self, local: int) -> bool:
        """Is communicator-local rank ``local`` dead in the parent?"""
        return self.parent.is_dead(self.global_rank(local))

    def dead_ranks(self) -> tuple[int, ...]:
        """Global ids of this view's members that are dead."""
        return tuple(r for r in self.global_ranks if self.parent.is_dead(r))

    # -- collectives over the active ranks, as SimComm's ----------------
    def _check_reduction(self, values) -> None:
        dead = self.dead_ranks()
        if dead:
            raise RankDeadError(
                dead[0], op="allreduce over a SubComm with dead ranks"
            )
        if len(values) != self.size:
            raise ValueError(
                f"allreduce needs one value per active rank: got "
                f"{len(values)}, size {self.size}"
            )

    allreduce_max = SimComm.allreduce_max
    allreduce_sum = SimComm.allreduce_sum

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SubComm(size={self.size}, ranks={self.global_ranks}, "
            f"tag_offset={self.tag_offset})"
        )
