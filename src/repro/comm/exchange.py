"""Ghost-brick exchange: the V-cycle's ``exchange()`` operation.

Each rank sends, for every one of its 26 neighbour directions, the
interior bricks the neighbour's ghost shell needs, and receives the
matching region into its own ghost bricks.  Because the ghost shell is
a full brick deep, one exchange validates ``brick_dim`` cells of halo —
the basis of communication-avoiding smoothing.

The mapping is static, so :class:`HaloExchange` executes a precomputed
:class:`~repro.comm.plan.ExchangePlan` as one native brick copy over
every field (:func:`repro.dsl.native.bind_exchange`, bound once per
field arrays — or a NumPy take and indexed assign per field where no
kernel can be had) and accounts it in O(1): one reference to the
plan's cached message events and ledger rows.  Only when an armed
message fault, a dead rank or traffic in flight call for individual
messages does it also run their headers through
:class:`ResilientChannel` (with each message's CRC32 when an injector
is attached), whose receive replays each header's fault in place —
never because someone is watching.  It is the only
exchanger: one rank is a plan of self-messages (the periodic wrap, run
by the one active rank of an agglomerated level) or of none (walls all
round, every ghost synthesised by the boundary condition), and a
service cohort's members are further stacked copies of the same
decomposition, served by one call.  A solve on one periodic rank builds
none: its levels have no ghost shell (their bricks wrap their own
adjacency).

Two cost-relevant properties are recorded per message:

* *aggregation*: multiple fields (``x`` and ``b``) destined for the
  same neighbour travel in one message (Section V's "message
  aggregation across multiple smoothing operations");
* *segments*: the number of contiguous storage ranges the payload
  occupies under the grid's ordering — 1 means pack-free/unpack-free,
  which the surface-major ordering guarantees for every receive.
"""

from __future__ import annotations

import zlib
from collections import Counter
from typing import Iterable, Sequence

import numpy as np

from repro.bricks.batch import BatchedGrid
from repro.bricks.brick_grid import BrickGrid
from repro.bricks.bricked_array import BrickedArray
from repro.comm.plan import exchange_plan_for
from repro.comm.simmpi import RankDeadError, SimComm, UnmatchedReceiveError
from repro.comm.topology import CartTopology
from repro.dsl import native
from repro.instrument import Recorder
from repro.obs.tracer import NULL_TRACER


#: what :attr:`HaloExchange._bound` holds for a field count never bound
_UNBOUND = (None, 0, None)


class ExchangeFaultError(RuntimeError):
    """A receive exhausted its retry budget during an exchange.

    Raised only on the resilient path (fault injection active) after
    ``max_retries`` retransmission attempts all failed — the caller
    (the resilient solve driver) converts it into rollback or a
    ``failed_faults`` outcome rather than letting it escape to users.
    """

    def __init__(
        self,
        level: int,
        rank: int,
        src: int,
        direction: tuple[int, int, int] | None,
        attempts: int,
    ) -> None:
        what = (
            f"a valid ghost region from rank {src} along direction "
            f"{direction}"
            if direction is not None
            else f"a valid agglomeration payload from rank {src}"
        )
        super().__init__(
            f"exchange at level {level} gave up after {attempts} retries: "
            f"rank {rank} never received {what}"
        )
        self.level = level
        self.rank = rank
        self.src = src
        self.direction = direction
        self.attempts = attempts


def payload_checksum(
    payload: np.ndarray, flip: tuple[int, int] | None = None
) -> int:
    """CRC32 of a message payload (the sender-side integrity header);
    with ``flip=(byte, bit)``, of a copy with that bit flipped — the
    bytes a ``corrupt`` fault would have delivered."""
    data = np.ascontiguousarray(payload)
    if flip is not None:
        data = data.copy()
        data.view(np.uint8).reshape(-1)[flip[0]] ^= np.uint8(1 << flip[1])
    return zlib.crc32(data)


def message_checksums(messages: Iterable[Sequence[np.ndarray]]) -> list[int]:
    """CRC32 per message, each given as its per-field brick arrays.
    Chained across the fields, so each equals the
    :func:`payload_checksum` of the message's fields ``np.stack``ed,
    unbuilt."""
    sums = []
    for fields in messages:
        crc = 0
        for bricks in fields:
            crc = zlib.crc32(bricks, crc)
        sums.append(crc)
    return sums


def _fate(action, nbytes: int) -> tuple[list, int]:
    """What the wire does to one transmission under ``action`` (a
    :class:`~repro.faults.injector.FaultAction`, or ``None``): the
    copies it delivers, each the ``(byte, bit)`` a corruption flipped in
    it or ``None``, and how many more land only after the receiver's
    retry timeout."""
    if action is None:
        return [None], 0
    if action.kind == "drop":
        return [], 0
    if action.kind == "corrupt":
        return [(action.corrupt_byte % nbytes, action.corrupt_bit % 8)], 0
    if action.kind == "duplicate":
        return [None, None], 0
    if action.kind == "delay":
        return [], 1
    raise ValueError(f"unknown fault action {action.kind!r}")


class ResilientChannel:
    """Header discipline shared by every ``SimComm`` consumer.

    Halo exchanges, the agglomeration gather/scatter transfers and the
    buddy checkpoints face the same wire hazards (drop, corrupt,
    duplicate, delay), so the machinery lives here once: the
    checksummed, injectable header send; checksum and size validation,
    stale-header discard, bounded sender-side retransmission, and the
    end-of-solve stale drain.  Subclasses own the message topology and
    move the bytes themselves, by direct copy: a header is delivered
    before its bytes are kept.

    A phase posts every header first, then receives each: ``_send``
    keeps the header's size, checksum and the fault the injector drew
    for it, and ``_receive`` replays that fault in place.  Only headers
    that outlive their receive — a duplicate's extra copy, or what an
    aborted phase had posted — are left on the communicator
    (:meth:`~repro.comm.simmpi.SimComm.hold`).

    Ranks passed to the channel are communicator-local; ``_gr`` maps
    them to global ids (via the communicator's ``global_rank`` hook when
    present, e.g. :class:`~repro.comm.simmpi.SubComm`) so fault events,
    injector predicates, the ledger and held headers always name the
    real rank — per-rank accounting stays truthful on agglomerated
    levels.
    """

    def __init__(
        self,
        comm,
        recorder: Recorder | None = None,
        injector=None,
        max_retries: int = 3,
        tracer=None,
    ) -> None:
        if max_retries < 1:
            raise ValueError(f"max_retries must be positive: {max_retries}")
        self.comm = comm
        self.recorder = recorder
        self.tracer = tracer or NULL_TRACER
        #: optional FaultInjector; when set, sends carry checksums and
        #: receives validate, discard stale headers, and retry via
        #: retransmission instead of raising on the first anomaly.
        self.injector = injector
        self.max_retries = int(max_retries)
        #: this phase's posted, unreceived headers — one per envelope, as
        #: a lockstep phase posts: ``{(rank, src, tag): (nbytes,
        #: checksum, fault action)}``
        self._rows: dict[tuple[int, int, int], tuple] = {}
        #: envelopes received on under an injector, in first-receive
        #: order: where the end-of-solve drain looks
        self._received: dict[tuple[int, int, int], None] = {}
        #: level of the most recent exchange on this channel — drained
        #: end-of-solve duplicates belong to the final exchange's level,
        #: not to a level-less ``-1``
        self._last_level = -1

    def _gr(self, rank: int) -> int:
        """Global id of a (possibly communicator-local) rank."""
        mapper = getattr(self.comm, "global_rank", None)
        return rank if mapper is None else mapper(rank)

    def _root_comm(self):
        """The root :class:`SimComm` under any ``SubComm`` views."""
        comm = self.comm
        while hasattr(comm, "parent"):
            comm = comm.parent
        return comm

    def _envelope(self, rank: int, src: int, tag: int) -> tuple[int, int, int]:
        """The root communicator's ``(dst, src, tag)`` for a local one."""
        return (
            self._gr(rank), self._gr(src),
            tag + getattr(self.comm, "tag_offset", 0),
        )

    def _is_dead(self, rank: int) -> bool:
        """Is communicator-local ``rank`` a dead endpoint?"""
        dead = getattr(self.comm, "is_dead", None)
        return False if dead is None else dead(rank)

    def _check_alive(self, dst: int, src: int, op: str) -> None:
        """Raise :class:`RankDeadError` for a dead endpoint, leaving the
        phase's posted headers for the repair's purge."""
        for rank, way in ((src, "from"), (dst, "to")):
            if self._is_dead(rank):
                self._abandon()
                rank = self._gr(rank)
                raise RankDeadError(rank, op=f"{op} {way} rank {rank}")

    def _abandon(self) -> None:
        """Leave this phase's unreceived headers on the communicator,
        for the recovery's purge (an aborted phase)."""
        root = self._root_comm()
        for (rank, src, tag), (nbytes, _, action) in self._rows.items():
            arrived, late = _fate(action, nbytes)
            copies = len(arrived) + late
            root.hold(*self._envelope(rank, src, tag), [nbytes] * copies)
        self._rows.clear()

    def poll_crashes(self, level: int) -> list[int]:
        """Fire level-pinned ``rank_crash`` specs on entry to a collective.

        Kills the victims' endpoints on the *root* communicator (crash
        specs always name global ranks), so the very next touch of a
        victim raises :class:`~repro.comm.simmpi.RankDeadError` for the
        recovery ladder.  Returns the global ranks killed.
        """
        if self.injector is None:
            return []
        victims = self.injector.crashes_due(level)
        if victims:
            root = self._root_comm()
            for rank in victims:
                root.kill(rank)
        return victims

    def _fault(self, kind: str, level: int, rank: int, src: int, tag: int,
               nbytes: int = 0, attempt: int = 0) -> None:
        if self.recorder is not None:
            vcycle = self.injector.vcycle if self.injector is not None else -1
            self.recorder.fault(
                kind, vcycle=vcycle, level=level, rank=self._gr(rank),
                src=self._gr(src), tag=tag, nbytes=nbytes, attempt=attempt,
            )

    def _send(
        self,
        level: int,
        src: int,
        dst: int,
        tag: int,
        direction: tuple[int, int, int] | None,
        nbytes: int,
        kind: str | None,
        segments: int = 1,
        checksum: int | None = None,
    ) -> None:
        """Post one header — carrying ``checksum``, the sender's CRC32,
        when an injector is set, and open to it — then record it as a
        ``kind`` message event (``None``: not a message of the solve's
        exchange accounting — a replica)."""
        action = None
        if self.injector is not None:
            action = self.injector.message_action(
                level, self._gr(src), self._gr(dst), tag, direction, nbytes
            )
        root = self._root_comm()
        key = (dst, src, tag)
        envelope = self._envelope(*key)
        root._check_rank(envelope[1], "source rank")
        root._check_rank(envelope[0], "destination rank")
        self._check_alive(dst, src, "send")
        root.account_sends([((level, envelope[1], envelope[0]), 1, int(nbytes))])
        self._rows[key] = (int(nbytes), checksum, action)
        if kind is not None and self.recorder is not None:
            self.recorder.message(
                level, nbytes, kind, segments=segments,
                self_message=(dst == src),
            )

    def _receive(
        self,
        level: int,
        rank: int,
        src: int,
        tag: int,
        nbytes: int,
        own_bytes,
        direction: tuple[int, int, int] | None = None,
        context: str = "message",
        what: str = "payload",
        crc: int | None = None,
    ) -> None:
        """Receive one header; returns once the receiver may keep its
        ``nbytes``.  ``own_bytes()`` returns them (``crc``, when given,
        is their CRC32 already taken): a header's checksum is judged
        against them, with a corruption's flip applied to a copy.

        A receive with no posted header is a protocol bug and raises;
        so, without an injector, is a wrong-sized one.  With an
        injector, the header's fault is replayed: headers held on the
        envelope since an earlier receive are stale duplicates
        (discarded, not an attempt); then each delivered copy is judged
        — a checksum or size failure discards it — and when none is
        left, late copies land after the retry timeout, else the sender
        retransmits.  Each retransmission passes through the injector
        again (with the sender's ``-direction``; transfers and replicas
        have none), so persistent faults can defeat the whole budget —
        after ``max_retries`` failed attempts the receive leaves what is
        still in flight on the communicator and raises
        :class:`ExchangeFaultError` for the recovery layer.
        """
        self._check_alive(rank, src, "receive")
        key = (rank, src, tag)
        envelope = self._envelope(*key)
        root = self._root_comm()
        for stale in root.take_held(*envelope):
            self._fault("detect_duplicate", level, rank, src, tag, nbytes=stale)
        row = self._rows.pop(key, None)
        if row is None:
            self._abandon()
            raise UnmatchedReceiveError(
                f"deadlock: rank {self._gr(rank)} waits on a message "
                f"from rank {self._gr(src)} tag {tag} that was never "
                f"sent (while filling {context})"
            )
        sent, checksum, action = row
        if self.injector is None:
            if sent != nbytes:
                self._abandon()
                raise RuntimeError(
                    f"{what} size mismatch: got {sent} bytes, "
                    f"expected {nbytes} (while filling {context})"
                )
            return
        arrived, late = _fate(action, sent)
        attempts = 0
        while True:
            released = False
            if arrived:
                flip = arrived.pop(0)
                if sent == nbytes and self._intact(checksum, flip, own_bytes, crc):
                    root.hold(*envelope, [sent] * (len(arrived) + late))
                    self._received.setdefault(key)
                    return
                self._fault("detect_corrupt", level, rank, src, tag, nbytes=sent)
            elif late:
                arrived, late, released = [None] * late, 0, True
                self._fault("detect_delay", level, rank, src, tag)
            else:
                self._fault("detect_drop", level, rank, src, tag)
            attempts += 1
            if attempts > self.max_retries:
                root.hold(*envelope, [sent] * (len(arrived) + late))
                self._abandon()
                raise ExchangeFaultError(
                    level, self._gr(rank), self._gr(src), direction,
                    attempts - 1,
                )
            self._fault("retry", level, rank, src, tag, attempt=attempts,
                        nbytes=sent)
            if released:
                continue
            action = self.injector.message_action(
                level, envelope[1], envelope[0], tag,
                None if direction is None else tuple(-c for c in direction),
                sent,
            )
            root.account_sends(
                [((level, envelope[1], envelope[0]), 1, sent)], resends=True
            )
            self._fault("retransmit", level, rank, src, tag,
                        nbytes=sent, attempt=attempts)
            more, later = _fate(action, sent)
            arrived += more
            late += later

    @staticmethod
    def _intact(checksum, flip, own_bytes, crc: int | None) -> bool:
        """Does the header's checksum hold for the receiver's bytes as
        the wire delivered them (``flip`` applied to a copy)?"""
        if checksum is None:
            return True
        if crc is None or flip is not None:
            crc = payload_checksum(own_bytes(), flip)
        return crc == checksum

    def drain_stale(self) -> int:
        """Discard leftover duplicates before the end-of-solve drain check.

        A duplicated header whose original was consumed in the solve's
        final exchange on its envelope has no later receive to discard
        it; it is still held on the envelope.  Each discard is recorded
        as a detected duplicate attributed to the channel's final
        exchange level, inside a ``drain-stale`` span on the receiving
        rank's timeline so the instant has an owning span in per-rank
        Chrome exports.  Returns the number of headers discarded; a
        header posted and never received is left on the communicator,
        for its drain check to name.
        """
        root, n = self._root_comm(), 0
        for rank, src, tag in self._received:
            for _ in root.take_held(*self._envelope(rank, src, tag)):
                with self.tracer.child(self._gr(rank)).span(
                    "drain-stale", l=self._last_level, src=self._gr(src),
                    dst=self._gr(rank), tag=tag,
                ):
                    self._fault(
                        "detect_duplicate", self._last_level, rank, src, tag
                    )
                n += 1
        self._abandon()
        return n


class HaloExchange(ResilientChannel):
    """Collective 26-neighbour ghost-brick exchange over ``SimComm``.

    One call serves ``k >= 1`` whole copies of the decomposition: each
    field it is given is a depth's stacked field, whose blocks are copy
    0's ranks, then copy 1's, … — so the members of a service cohort
    exchange through one member's exchanger.  Ghosts are written one
    way only, by the :class:`~repro.comm.plan.ExchangePlan`'s brick
    copy, leaving out every message with a dead endpoint: one native
    call over every field's storage, bound once per ``(field arrays,
    copies, dead ranks)`` — which is also when the fields are checked —
    or, where the binding is refused (no compiler, a dtype without a C
    type, fields sharing storage …), one NumPy take and indexed assign
    per field, the reason noted with
    :func:`~repro.dsl.native.note_fallback`.  The plan proves, once,
    that every ghost slot has exactly one writer and every source slot
    is interior, so the copy has nothing to check.

    Then the exchange is accounted, one of two ways:

    * **planned** — one reference to the plan's cached tuple of message
      events appended to the recorder, and one multiplicity bumped on
      the communicator's ledger (:meth:`~repro.comm.plan.ExchangePlan.accounting`),
      nothing posted;
    * **envelope** — when :meth:`envelope_reason` names something only
      individual messages provide, the header protocol runs over the
      plan's messages, copy by copy: ranks in lockstep, every rank's
      sends posted first (one header per message, carrying the CRC32
      of its send bricks when an injector is attached), then every
      receive validated
      (``Isend``/``Irecv`` order within one phase).  A header a fault
      strikes is detected, retried and retransmitted; its bytes were
      never at risk.

    Both leave identical accounting.  ``path_counts`` and
    ``envelope_reasons`` tally what ran.
    """

    def __init__(
        self,
        grid: BrickGrid,
        topology: CartTopology,
        comm: SimComm,
        recorder: Recorder | None = None,
        boundary=None,
        injector=None,
        max_retries: int = 3,
        tracer=None,
    ) -> None:
        from repro.gmg.boundary import BoundaryCondition, BoundaryFill

        if topology.size != comm.size:
            raise ValueError(
                f"topology has {topology.size} ranks but comm has {comm.size}"
            )
        super().__init__(
            comm, recorder=recorder, injector=injector,
            max_retries=max_retries, tracer=tracer,
        )
        self.grid = grid
        self.topology = topology
        self.boundary = boundary or BoundaryCondition.PERIODIC
        if topology.periodic != (self.boundary is BoundaryCondition.PERIODIC):
            raise ValueError(
                "topology periodicity must match the boundary condition"
            )
        self._fills = None
        if self.boundary is not BoundaryCondition.PERIODIC:
            self._fills = [
                BoundaryFill(grid, topology.boundary_sides(rank), self.boundary)
                for rank in range(topology.size)
            ]
        self.plan = exchange_plan_for(grid, topology)
        #: exchanges executed per path
        self.path_counts = {"planned": 0, "envelope": 0}
        #: envelope exchanges per :meth:`envelope_reason` answer
        self.envelope_reasons: Counter[str] = Counter()
        #: global rank ids, by communicator-local rank
        self._ranks = tuple(self._gr(r) for r in range(topology.size))
        #: per field count, the copy bound last: ``(binding, copies,
        #: dead)``, the binding a native ExchangeCall or a Refusal
        self._bound: dict[int, tuple] = {}

    @property
    def recv_is_unpack_free(self) -> bool:
        """True when every receive lands in one contiguous segment."""
        return all(n == 1 for n in self.plan.recv_segments.values())

    def envelope_reason(self, level: int | None = None) -> str | None:
        """What makes the next exchange at ``level`` (``None``: at any
        level) post per-message headers.

        ``None`` derives the accounting from the plan — always on a
        communicator of one, where every message is a copy within the
        rank: no wire to strike, no peer to lose.  Otherwise each of the
        three answers names something only headers provide: a message
        fault armed for this cycle and level strikes individual
        transmissions (an injector with nothing to strike here gets the
        plan's accounting); a dead endpoint makes the collective
        partial, message by message; and headers in flight — a
        duplicate a struck exchange left — may sit on this exchange's
        envelopes, where its receives must find and discard them.
        Who is watching is not among them: a tracer times the exchange
        that runs.
        """
        if self.comm.size == 1:
            return None
        if self.injector is not None and self.injector.may_strike(level):
            return "armed message fault"
        if self.comm.dead_ranks():
            return "dead endpoint"
        if self._root_comm().pending:
            return "traffic in flight"
        return None

    def exchange(self, level: int, fields: Sequence[BrickedArray]) -> None:
        """Exchange the ghost bricks of a depth's listed fields.

        ``fields`` are aggregated into one message per neighbour; each is
        a stacked field of ``copies * topology.size`` blocks of the
        exchanger's grid (copy-major, then rank), one or more whole
        copies of the decomposition.  The per-rank form — one list of
        block views per rank, ``[[x_0, b_0], [x_1, b_1], ...]`` — is
        taken too, when its fields are consecutive blocks of one
        allocation each.  The whole collective phase (the copy, any
        header protocol including fault retries, boundary fills) runs
        inside one ``exchange`` span, so fault instants fired during
        receives land inside it; the span says which accounting ran
        and what the plan moves.

        Level-pinned ``rank_crash`` specs fire on entry; once a rank is
        dead, every message and header touching it is skipped so the
        collective completes for the survivors — the crash then
        surfaces as :class:`RankDeadError` at the next residual
        reduction, which is the recovery ladder's guaranteed detection
        point.
        """
        if fields and not isinstance(fields[0], BrickedArray):
            fields = _stacked_from_ranks(fields)
        with self.tracer.span("exchange", l=level, nfields=len(fields)) as span:
            windows = [field.data for field in fields]
            backend = native.resolve_backend()
            call, copies, bound_dead = self._bound.get(len(windows), _UNBOUND)
            if call is None or not call.matches(backend, self.grid, windows):
                # arrays new to this exchanger: check them (a binding
                # holds its arrays, so while it matches they are checked)
                call, copies = None, self._validate(fields)
            self._last_level = level
            self.poll_crashes(level)
            reason = self.envelope_reason(level)
            itemsize, nfields = windows[0].dtype.itemsize, len(windows)
            span.set(
                path="planned" if reason is None else "envelope",
                messages=copies * self.plan.num_messages,
                bytes=copies * self.plan.nbytes(itemsize, nfields),
            )
            dead = self._dead_ranks()
            if call is None or bound_dead != dead:
                call = self._bind(backend, windows, copies, dead)
                self._bound[nfields] = (call, copies, dead)
            self._copy(call, windows, copies, dead)
            if reason is None:
                self.path_counts["planned"] += 1
                self._account(level, itemsize, nfields, copies)
            else:
                self.path_counts["envelope"] += 1
                self.envelope_reasons[reason] += 1
                self._post_headers(level, windows, copies, dead)
            self._apply_fills(windows, copies, dead)
            if self.recorder is not None:
                self.recorder.exchange(level)

    def _validate(self, fields: Sequence[BrickedArray]) -> int:
        """Reject what cannot be exchanged, by name; returns how many
        copies of the decomposition the fields hold."""
        if not fields:
            raise ValueError("nothing to exchange: the field list is empty")
        dtypes = sorted({str(field.data.dtype) for field in fields})
        if len(dtypes) > 1:
            # the accounting sizes every field by the first one's itemsize
            raise ValueError(f"fields of one exchange must share a dtype: {dtypes}")
        key = self.grid.geometry_key
        blocks = set()
        for field in fields:
            grid = field.grid
            base = grid.base if isinstance(grid, BatchedGrid) else grid
            # shape, brick, ghost depth and ordering: the plan's slot
            # tables are only this geometry's
            if base.geometry_key != key:
                raise ValueError(
                    "field grid incompatible with exchanger grid: "
                    f"{base.geometry_key} != {key}"
                )
            blocks.add(len(field.data) // self.plan.num_slots)
        if len(blocks) != 1:
            raise ValueError(f"all fields must stack the same blocks: {sorted(blocks)}")
        n = blocks.pop()
        size = self.topology.size
        copies, partial = divmod(n, size)
        if copies < 1 or partial:
            raise ValueError(
                f"need fields of a positive multiple of topology.size="
                f"{size} blocks (whole copies of the decomposition), got {n}"
            )
        return copies

    def _bind(self, backend, windows, copies: int, dead):
        """The native brick copy bound to ``windows`` over the plan's
        live rows, or a :class:`~repro.dsl.native.Refusal` saying why
        they go through NumPy."""
        if backend.reason is not None:
            return native.Refusal(backend, self.grid, windows, backend.reason)
        return native.bind_exchange(
            backend, self.grid, windows, self.plan.copy_rows(copies, dead)
        )

    def _copy(self, call, windows, copies: int, dead) -> None:
        """Land every live message's bricks in its ghost slots."""
        if call.reason is None:
            call.run()
            return
        native.note_fallback(call.reason)
        src, dst = self.plan.tables(copies, dead)
        for window in windows:
            # every send region is read before any ghost is written
            window[dst] = window.take(src, axis=0)

    def _account(self, level: int, itemsize: int, nfields: int, copies: int) -> None:
        """Add what the header protocol's sends would have recorded:
        the plan's cached events and ledger rows, by reference."""
        events, traffic = self.plan.accounting(
            level, itemsize, nfields, copies, self._ranks
        )
        if self.recorder is not None:
            self.recorder.message_run(events)
        self._root_comm().account_planned(traffic)

    # ------------------------------------------------------------------
    # header protocol
    # ------------------------------------------------------------------
    def _dead_ranks(self) -> frozenset[int]:
        """Communicator-local dead endpoints (fixed for one phase:
        crashes fire only at the polls that precede it)."""
        if not self.comm.dead_ranks():
            return frozenset()
        return frozenset(
            r for r in range(self.topology.size) if self._is_dead(r)
        )

    def _header_sums(self, windows, copies: int, dead) -> list[int]:
        """The CRC32 each live plan message's header carries, copy-major
        in ``plan.live_receives(dead)`` order, over the message's send
        bricks.  Those are interior slots, which the copy never writes
        (the plan proves it at construction), so the sums hold before
        and after the copy — and for the ghost bricks it landed, each
        written by that message alone."""
        plan, size = self.plan, self.topology.size
        return message_checksums(
            [self._block(w, c * size + m.src_rank)[plan.send_slots[m.direction]]
             for w in windows]
            for c in range(copies)
            for m in plan.live_receives(dead)
        )

    def _block(self, window: np.ndarray, k: int) -> np.ndarray:
        """Block ``k`` of a stacked field's storage."""
        S = self.plan.num_slots
        return window[k * S : (k + 1) * S]

    def _post_headers(self, level: int, windows, copies: int, dead) -> None:
        """The header protocol over the plan's live messages, copy by
        copy: every rank posts one header per direction (carrying the
        message's CRC32 when an injector is attached), then every rank
        validates its headers against the ghost bricks the copy landed
        — ``Isend``/``Irecv`` order within one lockstep phase.  A
        message carries tag = index(-d) of the receiver's ghost
        direction d; a dead endpoint posts and receives nothing."""
        plan, size = self.plan, self.topology.size
        nfields = len(windows)
        brick_bytes = plan.cells_per_brick * windows[0].itemsize * nfields
        receives = plan.live_receives(dead)
        sums = None if self.injector is None else self._header_sums(
            windows, copies, dead
        )
        for c in range(copies):
            crcs = {} if sums is None else dict(
                zip(receives, sums[c * len(receives) : (c + 1) * len(receives)])
            )
            for m in plan.messages:
                if m.src_rank not in dead and m.dst_rank not in dead:
                    self._send(
                        level, m.src_rank, m.dst_rank, m.tag, m.direction,
                        m.bricks * brick_bytes, m.kind,
                        segments=m.send_segments * nfields, checksum=crcs.get(m),
                    )
            for m in receives:
                d, k = m.ghost_direction, c * size + m.dst_rank
                self._receive(
                    level, m.dst_rank, m.src_rank, m.tag, m.bricks * brick_bytes,
                    lambda: np.stack(
                        [self._block(w, k)[plan.ghost_slots[d]] for w in windows]
                    ),
                    direction=d,
                    context=(
                        f"rank {self._gr(m.dst_rank)}'s ghost region along "
                        f"direction {d} at level {level}"
                    ),
                    what="ghost region", crc=crcs.get(m),
                )

    def _apply_fills(self, windows, copies: int, dead) -> None:
        # Phase 3: boundary conditions synthesise the outward ghosts
        # (after the copy — corner mirrors read exchanged ghosts).
        if self._fills is None:
            return
        size = self.topology.size
        for k in range(copies * size):
            rank = k % size
            if rank in dead:
                continue
            for window in windows:
                self._fills[rank].fill(self._block(window, k))


def _stacked_from_ranks(fields_by_rank) -> list[BrickedArray]:
    """The per-rank call form as stacked fields: ``fields_by_rank[k]``
    lists block ``k``'s view of each field.  One block's fields are
    taken as they are; more must be consecutive blocks of one
    allocation per field, or they are refused by name."""
    n = len(fields_by_rank)
    nfields = len(fields_by_rank[0])
    if any(len(fields) != nfields for fields in fields_by_rank):
        raise ValueError("all ranks must exchange the same fields")
    if n == 1:
        return list(fields_by_rank[0])
    stacked = []
    for f in range(nfields):
        first = fields_by_rank[0][f].data
        whole = first.base
        rows = len(first)
        start = None if whole is None else _row_offset(first, whole)
        for r, fields in enumerate(fields_by_rank):
            data = fields[f].data
            if (
                start is None or data.base is not whole or len(data) != rows
                or _row_offset(data, whole) != start + r * rows
            ):
                raise ValueError(
                    f"cannot exchange field {f} of {n} rank field lists: "
                    f"rank {r}'s is not block {r} of one stacked field"
                )
        grid = BatchedGrid(fields_by_rank[0][f].grid, n)
        # the allocation itself when the blocks cover it: the same array
        # every call, so the exchange's binding to it holds
        data = whole if start == 0 and n * rows == len(whole) else (
            whole[start : start + n * rows]
        )
        stacked.append(BrickedArray(grid, data, first.dtype))
    return stacked


def _row_offset(view: np.ndarray, whole: np.ndarray) -> int | None:
    """Which row of C-contiguous ``whole`` the view ``view`` starts at
    (``None`` when it does not start on a row)."""
    if whole.ndim != view.ndim or whole.shape[1:] != view.shape[1:]:
        return None
    delta = view.__array_interface__["data"][0] - whole.__array_interface__["data"][0]
    row, rem = divmod(delta, whole.strides[0])
    return row if rem == 0 and 0 <= row < len(whole) else None
