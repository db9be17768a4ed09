"""Single-process simulated MPI: the message headers of the exchange.

The solver's exchange follows the paper's pattern — ``MPI_Isend`` /
``MPI_Irecv`` with 26 neighbours — but the bytes of a message never
pass through this module: each consumer (the halo exchange, the
agglomeration transfers, the buddy checkpoints) copies its data itself,
from the sender's memory into the receiver's, and posts here only the
message's *header* — sequence number, size, and the sender-side CRC32
when a fault injector is attached.  ``SimComm`` is the wire those
headers travel: per-envelope FIFO mailboxes (MPI's non-overtaking
order), the traffic ledger, and the dead-rank semantics of ULFM.

The driver executes ranks in lockstep phases, so by the time any rank
receives, the matching send has been posted; a receive that finds its
mailbox empty with no injector attached is therefore a protocol bug
(the channel raises :class:`UnmatchedReceiveError`).

Fault modelling (``repro.faults``): ``isend`` accepts a
:class:`~repro.faults.injector.FaultAction` describing what the wire
does to this transmission: drop it, flip a bit (recorded in the
header's ``flip``, after the checksum was taken, as real corruption
would be), duplicate it, or park it in a delay queue until the
receiver's retry timeout flushes it.  The last header per envelope is
logged (the MPI send-buffer analogue) so :meth:`SimComm.retransmit`
can model a sender-side resend.  The receiver applies a delivered
``flip`` to a temporary copy of its own bytes before its CRC32, so a
corruption is detected by a real checksum mismatch and never written.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, replace

import numpy as np

from repro.obs.tracer import NULL_TRACER


class UnmatchedReceiveError(RuntimeError):
    """A receive waited on an envelope that was never sent.

    With no fault injection active this is always a protocol bug
    (mismatched send/receive bookkeeping), hence the 'deadlock' wording;
    the exchange layer re-raises it with direction and level context.
    """


class RankDeadError(RuntimeError):
    """An operation touched a crashed rank's endpoint.

    The simulator's analogue of ``MPI_ERR_PROC_FAILED``: after
    :meth:`SimComm.kill`, every send to, receive from, or collective
    including the dead rank raises this — so the failure surfaces to
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


@dataclass(frozen=True)
class _Message:
    """One in-flight transmission: the header of a message, no payload.

    ``flip`` is the ``(byte, bit)`` a ``corrupt`` fault flipped in this
    copy on the wire, or ``None`` for a pristine one.
    """

    seq: int
    nbytes: int
    checksum: int | None
    flip: tuple[int, int] | None = None


class SimComm:
    """Mailboxes of message headers among ``size`` simulated ranks.

    ``tracer`` is an optional :class:`~repro.obs.tracer.Tracer`: every
    send, matched receive and retransmission is mirrored as a span on
    the *per-rank child tracer* of the rank doing the work (the sender
    for ``isend``/``retransmit``, the receiver for matched receives),
    attributed with ``(src, dst, tag, bytes, seq)`` and the exchange
    level the caller threads through.  The default null tracer keeps the
    un-traced path allocation-free.
    """

    def __init__(self, size: int, tracer=None) -> None:
        if size < 1:
            raise ValueError(f"size must be positive: {size}")
        self.size = int(size)
        self.tracer = tracer or NULL_TRACER
        # (dst, src, tag) -> FIFO of messages, preserving MPI's
        # non-overtaking order for identical envelopes.
        self._mailboxes: dict[tuple[int, int, int], deque] = defaultdict(deque)
        # Faulted 'delay' transmissions parked until a retry flushes them.
        self._delayed: dict[tuple[int, int, int], deque] = defaultdict(deque)
        # Last pristine header per envelope (send-buffer analogue).
        self._send_log: dict[tuple[int, int, int], _Message] = {}
        self._send_seq: dict[tuple[int, int, int], int] = defaultdict(int)
        #: undelivered transmissions across all mailboxes and delay
        #: queues, maintained at every push/pop so ``pending`` is O(1)
        self._pending = 0
        #: the traffic ledger: ``{(level, src, dst): [messages, bytes,
        #: retransmissions]}`` of every transmission (resends included in
        #: all three), whether its header was posted or it was derived
        #: from an exchange plan; ``level`` is -1 where the caller gave
        #: none.  ``sent_messages``, ``sent_bytes``, ``retransmissions``
        #: and ``bytes_by_pair`` are its totals.
        self.ledger: dict[tuple[int, int, int], list[int]] = {}
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
        or retransmission requests from it, collectives including it —
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

        Discards all in-flight traffic (the revoke), forgets send logs
        and per-envelope sequence numbering (the repaired communicator
        starts fresh — channel objects must reset their expectations to
        match), and revives the given endpoints (the respawn analogue:
        same decomposition slot, blank memory).  Returns the number of
        purged messages.
        """
        purged = self.reset_in_flight()
        self._send_log.clear()
        self._send_seq.clear()
        for rank in revive:
            self._dead.discard(int(rank))
        self.repairs += 1
        return purged

    @property
    def sent_messages(self) -> int:
        return sum(entry[0] for entry in self.ledger.values())

    @property
    def sent_bytes(self) -> int:
        return sum(entry[1] for entry in self.ledger.values())

    @property
    def retransmissions(self) -> int:
        return sum(entry[2] for entry in self.ledger.values())

    @property
    def bytes_by_pair(self) -> dict[tuple[int, int], int]:
        """``{(src, dst): bytes sent}`` over all levels, in first-send order."""
        out: dict[tuple[int, int], int] = {}
        for (_, src, dst), (_, nbytes, _) in self.ledger.items():
            out[src, dst] = out.get((src, dst), 0) + nbytes
        return out

    def _check_alive(self, dst: int, src: int, op: str) -> None:
        if src in self._dead:
            raise RankDeadError(src, op=f"{op} from rank {src}")
        if dst in self._dead:
            raise RankDeadError(dst, op=f"{op} to rank {dst}")

    # ------------------------------------------------------------------
    # point to point
    # ------------------------------------------------------------------
    def isend(
        self,
        src: int,
        dst: int,
        tag: int,
        nbytes: int,
        checksum: int | None = None,
        fault=None,
        level: int = -1,
    ) -> None:
        """Post the header of an ``nbytes`` message.

        ``checksum`` is carried in-band (the sender's CRC32 over the
        pristine data).  ``fault`` is an optional
        :class:`~repro.faults.injector.FaultAction` the "wire" applies
        to this transmission.  ``level`` tags the traced span with the
        multigrid level the exchange serves.
        """
        self._check_rank(src, "source rank")
        self._check_rank(dst, "destination rank")
        self._check_alive(dst, src, "isend")
        key = (dst, src, tag)
        seq = self._send_seq[key]
        with self.tracer.child(src).span(
            "isend", l=level, src=src, dst=dst, tag=tag, bytes=int(nbytes),
            seq=seq,
        ):
            self._send_seq[key] = seq + 1
            msg = _Message(seq, int(nbytes), checksum)
            self._send_log[key] = msg
            self.account_sends([((level, src, dst), 1, msg.nbytes)])
            self._transmit(key, msg, fault)

    def _transmit(self, key: tuple[int, int, int], msg: _Message, fault) -> None:
        """Put one header on the wire, applying any fault action."""
        if fault is None:
            self._mailboxes[key].append(msg)
            self._pending += 1
            return
        if fault.kind == "drop":
            return  # vanishes on the wire
        if fault.kind == "corrupt":
            flip = (fault.corrupt_byte % msg.nbytes, fault.corrupt_bit % 8)
            self._mailboxes[key].append(replace(msg, flip=flip))
            self._pending += 1
            return
        if fault.kind == "duplicate":
            self._mailboxes[key].extend((msg, msg))
            self._pending += 2
            return
        if fault.kind == "delay":
            self._delayed[key].append(msg)
            self._pending += 1
            return
        raise ValueError(f"unknown fault action {fault.kind!r}")

    def try_match(
        self, dst: int, src: int, tag: int, level: int = -1
    ) -> _Message | None:
        """Pop the next header for an envelope, or ``None`` if empty.

        A missing message is the caller's to judge: a detected fault
        under an injector, a protocol bug without one.  A dead peer
        raises: no amount of retrying revives a crashed endpoint.
        """
        self._check_alive(dst, src, "receive")
        box = self._mailboxes.get((dst, src, tag))
        if not box:
            return None
        msg = box.popleft()
        self._pending -= 1
        with self.tracer.child(dst).span(
            "irecv", l=level, src=src, dst=dst, tag=tag, bytes=msg.nbytes,
            seq=msg.seq,
        ):
            pass
        return msg

    def release_delayed(self, dst: int, src: int, tag: int) -> int:
        """Flush parked 'delay' transmissions into the mailbox.

        Models the receiver's retry timeout expiring after which the
        late message finally lands; returns how many were released.
        """
        key = (dst, src, tag)
        parked = self._delayed.get(key)
        if not parked:
            return 0
        n = len(parked)
        self._mailboxes[key].extend(parked)
        parked.clear()
        return n

    def retransmit(
        self, dst: int, src: int, tag: int, fault=None, level: int = -1
    ) -> int:
        """Resend the last header of an envelope from the send log.

        Models a sender-side resend out of the retained send buffer
        (same sequence number and checksum, pristine — the original
        fault is not baked in, though ``fault`` may strike the
        retransmission too).  Returns the message size in bytes; raises
        :class:`UnmatchedReceiveError` when nothing was ever sent on the
        envelope, which is a protocol bug rather than a fault.
        """
        self._check_alive(dst, src, "retransmit")
        key = (dst, src, tag)
        msg = self._send_log.get(key)
        if msg is None:
            raise UnmatchedReceiveError(
                f"deadlock: rank {dst} requested retransmission from rank "
                f"{src} tag {tag} but nothing was ever sent on that envelope"
            )
        with self.tracer.child(src).span(
            "retransmit", l=level, src=src, dst=dst, tag=tag, bytes=msg.nbytes,
            seq=msg.seq,
        ):
            self.account_sends([((level, src, dst), 1, msg.nbytes)])
            self.ledger[level, src, dst][2] += 1
            self._transmit(key, msg, fault)
        return msg.nbytes

    def account_sends(self, traffic) -> None:
        """Enter ``((level, src, dst), messages, nbytes)`` rows in the
        ledger: what ``isend`` does per header, and what the compiled
        halo exchange — which copies ghost bricks by index and posts
        nothing — derives from its plan, in first-send order."""
        ledger = self.ledger
        for key, messages, nbytes in traffic:
            entry = ledger.get(key)
            if entry is None:
                entry = ledger[key] = [0, 0, 0]
            entry[0] += messages
            entry[1] += nbytes

    def logged_nbytes(self, dst: int, src: int, tag: int) -> int:
        """Size of the last message sent on an envelope (0 if none)."""
        logged = self._send_log.get((dst, src, tag))
        return 0 if logged is None else logged.nbytes

    def discard_stale(self, dst: int, src: int, tag: int, below_seq: int) -> int:
        """Drop leading mailbox messages with ``seq < below_seq``.

        Used by the exchange layer to clear already-consumed duplicates
        (recognised by their stale sequence numbers) before the
        end-of-solve drain check.
        """
        box = self._mailboxes.get((dst, src, tag))
        n = 0
        while box and box[0].seq < below_seq:
            box.popleft()
            n += 1
        self._pending -= n
        return n

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
        """Undelivered transmissions, delayed included (O(1))."""
        return self._pending

    def in_flight(self) -> dict[tuple[int, int, int], int]:
        """``{(dst, src, tag): pending message count}``, delayed included."""
        out: dict[tuple[int, int, int], int] = {}
        for key, box in self._mailboxes.items():
            if box:
                out[key] = len(box)
        for key, parked in self._delayed.items():
            if parked:
                out[key] = out.get(key, 0) + len(parked)
        return out

    def reset_in_flight(self) -> int:
        """Discard every undelivered message (mailboxes and delay queues).

        The recovery path calls this after an unrecoverable exchange
        fault before rolling back — the analogue of revoking and
        re-creating a communicator so stale traffic from the aborted
        cycle cannot be mistaken for fresh data.  Returns the number of
        messages discarded.
        """
        n = self._pending
        self._mailboxes.clear()
        self._delayed.clear()
        self._pending = 0
        return n

    def assert_drained(self) -> None:
        """Raise if any posted message was never received.

        Called at the end of a solve: leftover messages mean mismatched
        send/receive bookkeeping even though results looked right.  The
        error names every leaking mailbox by destination, source, and
        tag so the offending envelope is identifiable.
        """
        leftovers = self.in_flight()
        if leftovers:
            detail = "; ".join(
                f"dst={dst} src={src} tag={tag}: {n} pending"
                for (dst, src, tag), n in sorted(leftovers.items())
            )
            raise RuntimeError(
                f"undelivered messages remain in {len(leftovers)} "
                f"mailbox(es): {detail}"
            )


class SubComm:
    """A communicator view over a subset of a parent :class:`SimComm`.

    The distributed-MPI analogue is ``MPI_Comm_split``: agglomerated
    coarse levels run their halo exchanges over the *active* ranks only,
    so the exchange layer needs a communicator whose local ranks
    ``0..n-1`` map onto the chosen global ranks.  Every header travels
    through the parent — ``sent_messages``, ``bytes_by_pair`` and
    the per-rank trace spans keep global rank ids, so communication
    accounting stays truthful on agglomerated levels.

    Tags are shifted by ``tag_offset`` into a band reserved for this
    sub-communicator, mirroring MPI's guarantee that messages never
    cross communicators: the active exchange's direction tags ``0..26``
    must not share envelopes (and hence FIFO order and sequence
    numbering) with the full-grid exchanges between the same rank pair.
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

    # -- point to point, local ranks in / parent envelopes out ----------
    def _envelope(self, a: int, b: int, tag: int) -> tuple[int, int, int]:
        return self.global_rank(a), self.global_rank(b), tag + self.tag_offset

    def isend(self, src, dst, tag, nbytes, checksum=None, fault=None,
              level=-1):
        return self.parent.isend(
            *self._envelope(src, dst, tag), nbytes, checksum=checksum,
            fault=fault, level=level,
        )

    def try_match(self, dst, src, tag, level=-1):
        return self.parent.try_match(*self._envelope(dst, src, tag), level=level)

    def release_delayed(self, dst, src, tag):
        return self.parent.release_delayed(*self._envelope(dst, src, tag))

    def retransmit(self, dst, src, tag, fault=None, level=-1):
        return self.parent.retransmit(
            *self._envelope(dst, src, tag), fault=fault, level=level
        )

    def logged_nbytes(self, dst, src, tag):
        return self.parent.logged_nbytes(*self._envelope(dst, src, tag))

    @property
    def pending(self) -> int:
        """The parent's undelivered count: a view cannot tell its own
        band apart in O(1), and any traffic is reason for caution."""
        return self.parent.pending

    def discard_stale(self, dst, src, tag, below_seq):
        return self.parent.discard_stale(*self._envelope(dst, src, tag), below_seq)

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
