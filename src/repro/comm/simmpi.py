"""Single-process simulated MPI with non-blocking semantics.

The solver's exchange follows the paper's pattern — ``MPI_Isend`` /
``MPI_Irecv`` / ``MPI_Waitall`` with 26 neighbours — so the simulator
exposes the same shape: sends are posted (payload snapshotted, as a
correct MPI program may reuse its buffer after completion), receives
are posted against ``(source, tag)`` and completed by ``wait``.

The driver executes ranks in lockstep phases, so by the time any rank
waits on a receive, the matching send has been posted; an unmatched
wait is therefore a protocol bug and raises
:class:`UnmatchedReceiveError`.  Message payloads are real NumPy arrays
— distributed solves genuinely move data between rank subdomains.

Fault modelling (``repro.faults``): every message carries an in-band
header — a per-envelope sequence number and an optional sender-side
checksum — and ``isend`` accepts a
:class:`~repro.faults.injector.FaultAction` describing what the "wire"
does to this transmission: drop it, flip a bit (after the checksum is
computed, as real corruption would), duplicate it, or park it in a
delay queue until the receiver's retry timeout flushes it.  The pristine
payload of the last send per envelope is retained (the MPI send-buffer
analogue) so :meth:`SimComm.retransmit` can model a sender-side resend.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass

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


@dataclass
class _Message:
    """One in-flight transmission: payload plus resilience header."""

    payload: np.ndarray
    checksum: int | None
    seq: int


@dataclass
class SendRequest:
    """Completed-at-post send handle (buffered-send semantics)."""

    dst: int
    tag: int
    nbytes: int

    def wait(self) -> None:
        """Sends complete at post time in the simulator."""


class RecvRequest:
    """A posted receive; :meth:`wait` returns the payload."""

    def __init__(
        self, comm: "SimComm", dst: int, src: int, tag: int, level: int = -1
    ) -> None:
        self._comm = comm
        self._dst = dst
        self._src = src
        self._tag = tag
        self._level = level
        self._payload: np.ndarray | None = None
        self._done = False

    def wait(self) -> np.ndarray:
        """Complete the receive, returning the message payload."""
        if not self._done:
            self._payload = self._comm._match(
                self._dst, self._src, self._tag, level=self._level
            ).payload
            self._done = True
        assert self._payload is not None
        return self._payload


class SimComm:
    """Mailbox-based message passing among ``size`` simulated ranks.

    ``tracer`` is an optional :class:`~repro.obs.tracer.Tracer`: every
    send, receive completion and retransmission is mirrored as a span on
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
        # Last pristine transmission per envelope (send-buffer analogue).
        self._send_log: dict[tuple[int, int, int], _Message] = {}
        self._send_seq: dict[tuple[int, int, int], int] = defaultdict(int)
        #: undelivered transmissions across all mailboxes and delay
        #: queues, maintained at every push/pop so ``pending`` is O(1)
        self._pending = 0
        #: the traffic ledger: ``{(level, src, dst): [messages, bytes,
        #: retransmissions]}`` of every transmission (resends included in
        #: all three), whether it moved as an envelope or was derived
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
        payload: np.ndarray,
        checksum: int | None = None,
        fault=None,
        level: int = -1,
    ) -> SendRequest:
        """Post a send; the payload is snapshotted at post time.

        ``checksum`` is carried in-band (computed by the sender over the
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
            "isend", l=level, src=src, dst=dst, tag=tag,
            bytes=int(payload.nbytes), seq=seq,
        ):
            data = np.ascontiguousarray(payload).copy()
            self._send_seq[key] = seq + 1
            msg = _Message(data, checksum, seq)
            self._send_log[key] = msg
            self.account_sends([((level, src, dst), 1, data.nbytes)])
            self._transmit(key, msg, fault)
        return SendRequest(dst=dst, tag=tag, nbytes=data.nbytes)

    def _transmit(self, key: tuple[int, int, int], msg: _Message, fault) -> None:
        """Put one transmission on the wire, applying any fault action."""
        if fault is None:
            self._mailboxes[key].append(msg)
            self._pending += 1
            return
        if fault.kind == "drop":
            return  # vanishes on the wire
        if fault.kind == "corrupt":
            corrupted = msg.payload.copy()
            flat = corrupted.view(np.uint8).reshape(-1)
            flat[fault.corrupt_byte % flat.size] ^= np.uint8(
                1 << (fault.corrupt_bit % 8)
            )
            self._mailboxes[key].append(_Message(corrupted, msg.checksum, msg.seq))
            self._pending += 1
            return
        if fault.kind == "duplicate":
            self._mailboxes[key].append(msg)
            self._mailboxes[key].append(_Message(msg.payload, msg.checksum, msg.seq))
            self._pending += 2
            return
        if fault.kind == "delay":
            self._delayed[key].append(msg)
            self._pending += 1
            return
        raise ValueError(f"unknown fault action {fault.kind!r}")

    def irecv(self, dst: int, src: int, tag: int, level: int = -1) -> RecvRequest:
        """Post a receive for ``(src, tag)`` at rank ``dst``."""
        self._check_rank(src, "source rank")
        self._check_rank(dst, "destination rank")
        return RecvRequest(self, dst, src, tag, level)

    def _record_recv(self, dst: int, src: int, tag: int, level: int,
                     msg: _Message) -> None:
        """Mirror one matched receive as a span on ``dst``'s timeline."""
        with self.tracer.child(dst).span(
            "irecv", l=level, src=src, dst=dst, tag=tag,
            bytes=int(msg.payload.nbytes), seq=msg.seq,
        ):
            pass

    def _match(self, dst: int, src: int, tag: int, level: int = -1) -> _Message:
        self._check_alive(dst, src, "receive")
        box = self._mailboxes.get((dst, src, tag))
        if not box:
            raise UnmatchedReceiveError(
                f"deadlock: rank {dst} waits on a message from rank {src} "
                f"tag {tag} that was never sent"
            )
        msg = box.popleft()
        self._pending -= 1
        self._record_recv(dst, src, tag, level, msg)
        return msg

    def try_match(
        self, dst: int, src: int, tag: int, level: int = -1
    ) -> _Message | None:
        """Pop the next message for an envelope, or ``None`` if empty.

        The resilient receive path in
        :class:`~repro.comm.exchange.HaloExchange` uses this instead of
        :meth:`irecv`'s raising wait so a missing message becomes a
        detected fault rather than an exception.  A dead peer still
        raises: no amount of retrying revives a crashed endpoint.
        """
        self._check_alive(dst, src, "receive")
        box = self._mailboxes.get((dst, src, tag))
        if not box:
            return None
        msg = box.popleft()
        self._pending -= 1
        self._record_recv(dst, src, tag, level, msg)
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
        """Resend the last transmission of an envelope from the send log.

        Models a sender-side resend out of the retained send buffer
        (same sequence number and checksum, pristine payload — the
        original fault is not baked in, though ``fault`` may strike the
        retransmission too).  Returns the payload size in bytes; raises
        :class:`UnmatchedReceiveError` when nothing was ever sent on the
        envelope, which is a protocol bug rather than a fault.
        """
        self._check_alive(dst, src, "retransmit")
        key = (dst, src, tag)
        logged = self._send_log.get(key)
        if logged is None:
            raise UnmatchedReceiveError(
                f"deadlock: rank {dst} requested retransmission from rank "
                f"{src} tag {tag} but nothing was ever sent on that envelope"
            )
        with self.tracer.child(src).span(
            "retransmit", l=level, src=src, dst=dst, tag=tag,
            bytes=int(logged.payload.nbytes), seq=logged.seq,
        ):
            msg = _Message(logged.payload, logged.checksum, logged.seq)
            self.account_sends([((level, src, dst), 1, msg.payload.nbytes)])
            self.ledger[level, src, dst][2] += 1
            self._transmit(key, msg, fault)
        return int(msg.payload.nbytes)

    def account_sends(self, traffic) -> None:
        """Enter ``((level, src, dst), messages, nbytes)`` rows in the
        ledger: what ``isend`` does per envelope, and what the compiled
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
        """Payload size of the last transmission on an envelope (0 if none)."""
        logged = self._send_log.get((dst, src, tag))
        return 0 if logged is None else int(logged.payload.nbytes)

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

    def waitall(self, requests: list) -> list:
        """Complete a batch of requests, returning receive payloads.

        Traced as one ``waitall`` span on the root timeline; each
        completed receive still lands as an ``irecv`` span on its
        destination rank's child timeline.
        """
        with self.tracer.span("waitall", n=len(requests)):
            return [req.wait() for req in requests]

    # ------------------------------------------------------------------
    # collectives (lockstep driver supplies all ranks' values at once)
    # ------------------------------------------------------------------
    def allreduce_max(self, values: list[float]) -> float:
        """MAX all-reduce over one contribution per rank.

        NaN-propagating (``np.max``): a poisoned local residual must
        surface globally for the solver's health checks, exactly as an
        ``MPI_MAX`` over a NaN does on real systems.  Raises
        :class:`RankDeadError` when any rank is dead — the collective is
        the guaranteed detection point for a crash, like ULFM's
        ``MPI_ERR_PROC_FAILED`` from a collective.
        """
        if self._dead:
            raise RankDeadError(
                min(self._dead), op="allreduce over a communicator with dead ranks"
            )
        if len(values) != self.size:
            raise ValueError(
                f"allreduce needs one value per rank: got {len(values)}, "
                f"size {self.size}"
            )
        return float(np.max(values))

    def allreduce_sum(self, values: list[float]) -> float:
        """SUM all-reduce over one contribution per rank."""
        if self._dead:
            raise RankDeadError(
                min(self._dead), op="allreduce over a communicator with dead ranks"
            )
        if len(values) != self.size:
            raise ValueError(
                f"allreduce needs one value per rank: got {len(values)}, "
                f"size {self.size}"
            )
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
    ``0..n-1`` map onto the chosen global ranks.  All traffic physically
    moves through the parent — ``sent_messages``, ``bytes_by_pair`` and
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
    def isend(self, src, dst, tag, payload, checksum=None, fault=None,
              level=-1):
        return self.parent.isend(
            self.global_rank(src), self.global_rank(dst),
            tag + self.tag_offset, payload, checksum=checksum, fault=fault,
            level=level,
        )

    def irecv(self, dst, src, tag, level=-1):
        return self.parent.irecv(
            self.global_rank(dst), self.global_rank(src),
            tag + self.tag_offset, level=level,
        )

    def try_match(self, dst, src, tag, level=-1):
        return self.parent.try_match(
            self.global_rank(dst), self.global_rank(src),
            tag + self.tag_offset, level=level,
        )

    def release_delayed(self, dst, src, tag):
        return self.parent.release_delayed(
            self.global_rank(dst), self.global_rank(src),
            tag + self.tag_offset,
        )

    def retransmit(self, dst, src, tag, fault=None, level=-1):
        return self.parent.retransmit(
            self.global_rank(dst), self.global_rank(src),
            tag + self.tag_offset, fault=fault, level=level,
        )

    def logged_nbytes(self, dst, src, tag):
        return self.parent.logged_nbytes(
            self.global_rank(dst), self.global_rank(src),
            tag + self.tag_offset,
        )

    @property
    def pending(self) -> int:
        """The parent's undelivered count: a view cannot tell its own
        band apart in O(1), and any traffic is reason for caution."""
        return self.parent.pending

    def discard_stale(self, dst, src, tag, below_seq):
        return self.parent.discard_stale(
            self.global_rank(dst), self.global_rank(src),
            tag + self.tag_offset, below_seq,
        )

    # -- rank-failure view ----------------------------------------------
    def is_dead(self, local: int) -> bool:
        """Is communicator-local rank ``local`` dead in the parent?"""
        return self.parent.is_dead(self.global_rank(local))

    def dead_ranks(self) -> tuple[int, ...]:
        """Global ids of this view's members that are dead."""
        return tuple(r for r in self.global_ranks if self.parent.is_dead(r))

    # -- collectives over the active ranks ------------------------------
    def _check_members_alive(self) -> None:
        dead = self.dead_ranks()
        if dead:
            raise RankDeadError(
                dead[0], op="allreduce over a SubComm with dead ranks"
            )

    def allreduce_max(self, values) -> float:
        self._check_members_alive()
        if len(values) != self.size:
            raise ValueError(
                f"allreduce needs one value per active rank: got "
                f"{len(values)}, size {self.size}"
            )
        return float(np.max(values))

    def allreduce_sum(self, values) -> float:
        self._check_members_alive()
        if len(values) != self.size:
            raise ValueError(
                f"allreduce needs one value per active rank: got "
                f"{len(values)}, size {self.size}"
            )
        # Python's left-to-right sum, as SimComm.allreduce_sum: np.sum
        # adds pairwise from 8 values up and rounds differently
        return float(sum(values))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SubComm(size={self.size}, ranks={self.global_ranks}, "
            f"tag_offset={self.tag_offset})"
        )
