"""Compiled halo exchange: one static index copy per level.

The paper's ghost *bricks* make an exchange a fixed brick-to-brick
mapping (§III, Fig 6): which interior brick of which rank lands in
which ghost slot of which neighbour depends only on the brick grid and
the rank grid, never on the data — nor on whether the neighbour is
another rank or, across a periodic axis one rank wide, the sender
itself.  One periodic rank is 26 self-messages (the periodic wrap), one
walled rank is a plan with no messages at all.  An
:class:`ExchangePlan` resolves that mapping once per
``(grid.geometry_key, topology dims, periodic)`` into

* the **per-message table** — one :class:`PlannedMessage` per send the
  26-neighbour protocol would post, in the protocol's ``(rank,
  direction)`` order — from which the header protocol reads its
  neighbours, tags and sizes;
* **flat ``src``/``dst`` slot tables** over the rank-stacked storage
  (rank ``r``'s slot ``s`` is ``r * num_slots + s``), so a whole
  exchange of one field is ``data[dst] = data[src]`` — and
  :meth:`ExchangePlan.tables` tiles them over any number of stacked
  copies of the decomposition (a service cohort's members), and
  :meth:`ExchangePlan.copy_rows` pairs them into the ``(src, dst)``
  rows the native brick copy walks
  (:func:`repro.dsl.native.generate_exchange_source`);
* the **per-pair traffic** — bricks and messages per ``(src_rank,
  dst_rank)``.

From the last two and the message table, :meth:`ExchangePlan.accounting`
derives, once per ``(level, itemsize, nfields, copies, rank map)``,
what a planned exchange — which posts nothing — records: one tuple of
``MessageEvent``s and one tuple of ledger rows, shared by every
exchanger and every exchange of that key.

Every ``dst`` slot is a ghost slot written exactly once and every
``src`` slot is an interior slot (refused by name otherwise, when the
plan is built), so the copy has no read-after-write hazard, needs no
staging order and has nothing to check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bricks.brick_grid import (
    NEIGHBOR_DIRECTIONS,
    BrickGrid,
    direction_index,
    direction_kind,
)
from repro.bricks.orderings import contiguous_segments
from repro.bricks.plan_cache import PlanLRUCache
from repro.comm.topology import CartTopology
from repro.instrument import MessageEvent


@dataclass(frozen=True)
class PlannedMessage:
    """One send of the 26-neighbour protocol, resolved ahead of time.

    ``direction`` is the sender's direction towards ``dst_rank`` and
    ``tag`` its index; the receiver fills its ghost region along
    ``ghost_direction == -direction`` from it.
    """

    src_rank: int
    dst_rank: int
    direction: tuple[int, int, int]
    ghost_direction: tuple[int, int, int]
    tag: int
    kind: str  # 'face' | 'edge' | 'corner'
    bricks: int
    send_segments: int


@dataclass(frozen=True)
class PairCopy:
    """How many bricks ``src_rank`` sends ``dst_rank`` per exchange of
    one field, and how many messages of the protocol carry them."""

    src_rank: int
    dst_rank: int
    bricks: int
    messages: int


def _concatenate(slot_arrays) -> np.ndarray:
    """The slot arrays end to end; an empty int64 table for none (a
    walled rank with no neighbours)."""
    return np.concatenate([np.empty(0, dtype=np.int64), *slot_arrays])


class ExchangePlan:
    """The static structure of one level's ghost exchange."""

    def __init__(self, grid: BrickGrid, topology: CartTopology) -> None:
        self.num_slots = grid.num_slots
        self.num_ranks = topology.size
        self.cells_per_brick = grid.cells_per_brick
        #: rank-local slots per direction, in lexicographic region order
        #: (a send region and the ghost region it fills list matching
        #: bricks at matching positions)
        self.send_slots = {
            d: grid.send_region_slots(d) for d in NEIGHBOR_DIRECTIONS
        }
        self.ghost_slots = {
            d: grid.ghost_region_slots(d) for d in NEIGHBOR_DIRECTIONS
        }
        #: contiguous storage ranges a receive lands in, per ghost
        #: direction — 1 everywhere is the pack-free property
        self.recv_segments = {
            d: len(contiguous_segments(s)) for d, s in self.ghost_slots.items()
        }
        send_segments = {
            d: len(contiguous_segments(s)) for d, s in self.send_slots.items()
        }
        #: sends in posting order: rank-major, then direction
        self.messages: tuple[PlannedMessage, ...] = tuple(
            PlannedMessage(
                rank, dst, d, (-d[0], -d[1], -d[2]), direction_index(d),
                direction_kind(d), len(self.send_slots[d]), send_segments[d],
            )
            for rank in range(topology.size)
            for d in NEIGHBOR_DIRECTIONS
            if (dst := topology.neighbor(rank, d)) is not None
        )
        #: the same messages in completion order: receiver-major, then
        #: the receiver's ghost direction
        self.receives: tuple[PlannedMessage, ...] = tuple(
            sorted(
                self.messages,
                key=lambda m: (m.dst_rank, direction_index(m.ghost_direction)),
            )
        )
        S = self.num_slots
        #: flat tables in completion order; receive ``i`` owns
        #: ``[offsets[i], offsets[i + 1])``
        self.src = _concatenate(
            m.src_rank * S + self.send_slots[m.direction] for m in self.receives
        )
        self.dst = _concatenate(
            m.dst_rank * S + self.ghost_slots[m.ghost_direction]
            for m in self.receives
        )
        self.offsets = np.cumsum([0] + [m.bricks for m in self.receives])
        self._check_writers(grid)
        #: ``(src, dst)`` over ``k`` stacked copies without the dead
        #: ranks' messages, per ``(k, dead)``, and the same paired
        self._tables = {(1, frozenset()): (self.src, self.dst)}
        self._rows: dict[tuple[int, frozenset], np.ndarray] = {}
        #: :meth:`accounting`'s answers, per its arguments
        self._accounting: dict[tuple, tuple[tuple, tuple]] = {}
        by_pair: dict[tuple[int, int], list[PlannedMessage]] = {}
        for m in self.receives:
            by_pair.setdefault((m.src_rank, m.dst_rank), []).append(m)
        self.pairs: tuple[PairCopy, ...] = tuple(
            PairCopy(src, dst, sum(m.bricks for m in msgs), len(msgs))
            for (src, dst), msgs in by_pair.items()
        )

    def _check_writers(self, grid: BrickGrid) -> None:
        """Refuse a plan in which a ghost slot has two writers, a row
        writes anything but a ghost slot, or a row reads anything but
        an interior slot, naming the slot and the messages.  The tiled
        tables of :meth:`tables` inherit the invariant: copy ``c`` is
        the plan offset by ``c`` whole decompositions, and a dead mask
        only drops rows."""
        S = self.num_slots

        def where(row: int) -> str:
            m = self.receives[int(np.searchsorted(self.offsets, row, "right")) - 1]
            return (
                f"rank {m.src_rank} -> rank {m.dst_rank} along direction "
                f"{m.direction} (tag {m.tag})"
            )

        order = np.argsort(self.dst, kind="stable")
        twice = np.flatnonzero(self.dst[order][1:] == self.dst[order][:-1])
        if twice.size:
            a, b = order[twice[0]], order[twice[0] + 1]
            rank, slot = divmod(int(self.dst[a]), S)
            raise ValueError(
                f"exchange plan writes rank {rank}'s ghost slot {slot} twice: "
                f"from {where(a)} and from {where(b)}"
            )
        for table, allowed, what, verb in (
            (self.dst, grid.ghost_slots, "a ghost", "writes"),
            (self.src, grid.interior_slots, "an interior", "reads"),
        ):
            bad = np.flatnonzero(~np.isin(table % S, allowed))
            if bad.size:
                rank, slot = divmod(int(table[bad[0]]), S)
                raise ValueError(
                    f"exchange plan {verb} rank {rank}'s slot {slot}, not "
                    f"{what} slot, in {where(bad[0])}"
                )

    @property
    def num_messages(self) -> int:
        return len(self.messages)

    @property
    def num_bricks(self) -> int:
        """Bricks one field moves per exchange."""
        return len(self.src)

    def live_receives(self, dead: frozenset[int] = frozenset()):
        """:attr:`receives` without those a rank in ``dead`` sends or
        receives: a dead endpoint moves nothing."""
        if not dead:
            return self.receives
        return tuple(
            m for m in self.receives
            if m.src_rank not in dead and m.dst_rank not in dead
        )

    def tables(
        self, copies: int, dead: frozenset[int] = frozenset()
    ) -> tuple[np.ndarray, np.ndarray]:
        """The flat ``(src, dst)`` tables of :meth:`live_receives` over
        ``copies`` stacked copies of the decomposition: copy ``c``'s
        rank ``r`` owns block ``c * num_ranks + r`` of the window."""
        tables = self._tables.get((copies, dead))
        if tables is None:
            src, dst, S = self.src, self.dst, self.num_slots
            if dead:
                lost = list(dead)
                live = ~(np.isin(src // S, lost) | np.isin(dst // S, lost))
                src, dst = src[live], dst[live]
            base = np.arange(copies)[:, None] * (self.num_ranks * S)
            tables = self._tables[copies, dead] = tuple(
                (base + table).reshape(-1) for table in (src, dst)
            )
        return tables

    def copy_rows(
        self, copies: int, dead: frozenset[int] = frozenset()
    ) -> np.ndarray:
        """:meth:`tables` as one C-contiguous ``(n, 2)`` int64 table of
        ``(src, dst)`` rows."""
        rows = self._rows.get((copies, dead))
        if rows is None:
            rows = self._rows[copies, dead] = np.ascontiguousarray(
                np.column_stack(self.tables(copies, dead)), dtype=np.int64
            )
        return rows

    def accounting(
        self, level: int, itemsize: int, nfields: int, copies: int,
        ranks: tuple[int, ...],
    ) -> tuple[tuple[MessageEvent, ...], tuple]:
        """What one planned exchange of ``nfields`` fields of
        ``itemsize`` bytes over ``copies`` stacked copies at ``level``
        records, its ranks' global ids being ``ranks``: the message
        events the header protocol's sends would record, in posting
        order, and the ledger rows ``((level, src, dst), messages,
        nbytes)`` per rank pair.  Built once per argument tuple; the
        same two tuples are returned every time."""
        key = (level, itemsize, nfields, copies, ranks)
        found = self._accounting.get(key)
        if found is None:
            brick_bytes = self.cells_per_brick * itemsize * nfields
            events = tuple(
                MessageEvent(
                    level, m.bricks * brick_bytes, m.kind,
                    m.send_segments * nfields, m.dst_rank == m.src_rank,
                )
                for m in self.messages
            ) * copies
            traffic = tuple(
                (
                    (level, ranks[p.src_rank], ranks[p.dst_rank]),
                    p.messages * copies,
                    p.bricks * brick_bytes * copies,
                )
                for p in self.pairs
            )
            found = self._accounting[key] = (events, traffic)
        return found

    def nbytes(self, itemsize: int, nfields: int = 1) -> int:
        """Payload bytes of one exchange of ``nfields`` fields."""
        return self.num_bricks * self.cells_per_brick * itemsize * nfields

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExchangePlan(ranks={self.num_ranks}, "
            f"messages={self.num_messages}, bricks={self.num_bricks})"
        )


_PLANS = PlanLRUCache("exchange_plan")


def exchange_plan_for(grid: BrickGrid, topology: CartTopology) -> ExchangePlan:
    """The (cached) plan for ``grid`` decomposed over ``topology``."""
    key = (grid.geometry_key, topology.dims, topology.periodic)
    plan = _PLANS.get(key)
    if plan is None:
        plan = ExchangePlan(grid, topology)
        _PLANS.put(key, plan)
    return plan
