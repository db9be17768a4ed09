"""In-solver coarse-level agglomeration (HPGMG-style rank merging).

Deep in the V-cycle the per-rank subdomain shrinks geometrically until
each rank holds a handful of cells and every visit is pure latency: 26
neighbour messages to smooth a 2^3 block.  Agglomeration fixes the
surface-to-volume collapse structurally: below a configurable per-rank
point threshold the solver *merges* the decomposition — every
agglomeration step halves each even rank-grid dimension, so up to 8
subdomains combine into one and only 1/8 of the ranks stay active.
Merged subdomains are 8x larger, support larger bricks (deeper halo
budget, fewer communication-avoiding exchanges per visit), and talk to
7/8 fewer peers.

The mechanism is in-solver and exact, not a performance-model stub:

* an :class:`AgglomerationPlan` derives the active rank grid per level
  (pure geometry — deterministic, validated, nested);
* at each *transition* level the per-source restriction lands in a
  *staging* level on the previous decomposition, and an
  :class:`AgglomerationTransfer` gathers the staged ``x``/``b`` blocks
  to their owner rank by direct copy, each behind a header on the
  parent :class:`~repro.comm.simmpi.SimComm` — priced, checksummed and
  fault-injectable exactly like halo traffic (``direction=None``
  distinguishes the envelope);
* active ranks smooth the merged level through a
  :class:`~repro.comm.exchange.HaloExchange` scoped to the active
  communicator (:class:`~repro.comm.simmpi.SubComm`) — when a single
  rank owns the whole coarse domain that is a communicator of one,
  whose 26 messages are copies within the rank;
* on the way back up the transfer *scatters* the merged correction to
  the staged blocks, and interpolation proceeds per source rank.

Because every gather/scatter moves exact field blocks and smoothing is
pointwise over identical values, the residual history with agglomeration
on is **bit-identical** to the history with it off — only the message
schedule changes.  That identity is the acceptance test.

Each merged depth is one :class:`~repro.gmg.level.Level` stacking every
active rank's block, and each transition's staging is one level
stacking every previous active rank's block, so restriction into the
staging level and interpolation out of it are one call over all blocks.
A hierarchy of ``copies`` stacked problems (a service cohort) has one
agglomerator: its levels stack every copy's blocks, and its exchangers
and transfers move each copy's blocks in turn — so no copy reads
another's bytes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.comm.exchange import HaloExchange, ResilientChannel, payload_checksum
from repro.comm.simmpi import SubComm
from repro.comm.topology import CartTopology
from repro.gmg.level import Level, make_level
from repro.obs.tracer import NULL_TRACER

#: tag band for halo exchanges on agglomerated levels: the 26 direction
#: tags (0..26) of level ``lev`` shift to ``BASE + lev * STRIDE`` so
#: sub-communicator traffic never collides with the full-grid band
SUBCOMM_TAG_BASE = 100
SUBCOMM_TAG_STRIDE = 64

#: tag band for gather/scatter transfers (on the parent communicator):
#: gather at level ``lev`` uses ``BASE + 2 lev``, scatter ``BASE + 2 lev + 1``
TRANSFER_TAG_BASE = 10_000


def _coords_of(rank: int, dims: tuple[int, int, int]) -> tuple[int, int, int]:
    """Row-major coordinates (matches :class:`CartTopology`)."""
    p0, p1, p2 = dims
    return (rank // (p1 * p2), (rank // p2) % p1, rank % p2)


def _rank_of(coords: tuple[int, int, int], dims: tuple[int, int, int]) -> int:
    return (coords[0] * dims[1] + coords[1]) * dims[2] + coords[2]


class AgglomerationPlan:
    """Which ranks are active at each level (pure geometry).

    Starting from the full ``rank_dims`` at level 0, each deeper level
    halves every even active dimension > 1 — repeatedly — while the
    per-active-rank point count stays below ``threshold_points``.  Level
    0 is never agglomerated (the finest level is where the rank count
    pays off), and the active grids are *nested*: each level's active
    ranks are a subset of the previous level's, so a merged subdomain is
    always assembled from blocks its owner's previous peers staged.
    """

    def __init__(
        self,
        rank_dims: tuple[int, int, int],
        global_cells: int,
        num_levels: int,
        threshold_points: int,
    ) -> None:
        rank_dims = tuple(int(d) for d in rank_dims)
        if len(rank_dims) != 3 or any(d < 1 for d in rank_dims):
            raise ValueError(f"rank_dims must be three positive ints: {rank_dims}")
        if threshold_points < 1:
            raise ValueError(
                f"threshold_points must be positive: {threshold_points}"
            )
        if num_levels < 1:
            raise ValueError(f"num_levels must be positive: {num_levels}")
        self.rank_dims = rank_dims
        self.global_cells = int(global_cells)
        self.num_levels = int(num_levels)
        self.threshold_points = int(threshold_points)
        #: per level: the active rank-grid dimensions
        self.active_dims: list[tuple[int, int, int]] = [rank_dims]
        for lev in range(1, num_levels):
            d = self.active_dims[-1]
            while True:
                cells = self.level_cells(lev, d)
                if cells[0] * cells[1] * cells[2] >= threshold_points:
                    break
                nd = tuple(
                    (dd // 2) if (dd % 2 == 0 and dd > 1) else dd for dd in d
                )
                if nd == d:
                    break  # nothing left to halve
                d = nd
            self.active_dims.append(d)

    def level_cells(
        self, lev: int, dims: tuple[int, int, int] | None = None
    ) -> tuple[int, int, int]:
        """Per-active-rank interior cells at ``lev`` under ``dims``."""
        d = self.active_dims[lev] if dims is None else dims
        return tuple((self.global_cells >> lev) // dd for dd in d)

    def active_count(self, lev: int) -> int:
        d = self.active_dims[lev]
        return d[0] * d[1] * d[2]

    def is_agglomerated(self, lev: int) -> bool:
        """True when fewer ranks than the full grid compute ``lev``."""
        return self.active_dims[lev] != self.rank_dims

    def transition_at(self, lev: int) -> bool:
        """True when the decomposition shrinks *entering* ``lev``."""
        return lev >= 1 and self.active_dims[lev] != self.active_dims[lev - 1]

    @property
    def any_agglomerated(self) -> bool:
        return any(self.is_agglomerated(lev) for lev in range(self.num_levels))

    def active_ranks(self, lev: int) -> list[int]:
        """Global ids of the active ranks at ``lev``, in sub-grid
        row-major order (each active rank keeps its own corner block:
        active coords ``a`` map to full-grid coords ``a * stride``)."""
        d = self.active_dims[lev]
        stride = tuple(r // dd for r, dd in zip(self.rank_dims, d))
        return [
            _rank_of(
                tuple(c * s for c, s in zip(_coords_of(a, d), stride)),
                self.rank_dims,
            )
            for a in range(d[0] * d[1] * d[2])
        ]

    def describe(self) -> str:
        rows = []
        for lev in range(self.num_levels):
            d = self.active_dims[lev]
            cells = self.level_cells(lev)
            rows.append(
                f"level {lev}: {d[0]}x{d[1]}x{d[2]} active ranks, "
                f"{cells[0]}x{cells[1]}x{cells[2]} cells each"
                + (" [agglomerated]" if self.is_agglomerated(lev) else "")
            )
        return "\n".join(rows)


class AgglomerationTransfer(ResilientChannel):
    """Gather/scatter of staged coarse blocks at one transition level.

    Each block is copied directly; its header travels on the *parent*
    communicator with global rank ids and a level-unique tag, so it is
    priced, traced, checksummed and fault-injected by exactly the
    machinery halo traffic uses; a
    direction-pinned fault spec never matches them (``direction=None``)
    but level/src/rank predicates do.  The owner's own block is a self
    message (the active rank keeps its corner), matching how a real
    ``MPI_Gatherv`` onto a member root behaves.

    ``staging`` and ``merged`` are stacked levels whose blocks may hold
    several copies of the decomposition (copy-major); the collective
    then runs copy by copy on the same tags, as the halo's header
    protocol does.
    """

    def __init__(
        self,
        level_index: int,
        staging: Level,
        merged: Level,
        source_ranks: list[int],
        owner_ranks: list[int],
        owner_of: list[int],
        assignments: list[list[tuple[int, tuple[int, int, int]]]],
        comm,
        recorder=None,
        injector=None,
        max_retries: int = 3,
        tracer=None,
    ) -> None:
        super().__init__(
            comm, recorder=recorder, injector=injector,
            max_retries=max_retries, tracer=tracer,
        )
        self.level_index = int(level_index)
        self.staging = staging
        self.merged = merged
        self.source_ranks = source_ranks
        self.owner_ranks = owner_ranks
        #: owner (merged index) of each staging (source) index
        self.owner_of = owner_of
        #: per owner: [(source index, cell offset in the merged block)]
        self.assignments = assignments
        self.gather_tag = TRANSFER_TAG_BASE + 2 * self.level_index
        self.scatter_tag = TRANSFER_TAG_BASE + 2 * self.level_index + 1
        #: cell offset in its owner's merged block, per staging index
        self._offset_of = {s: off for owned in assignments for s, off in owned}
        self._last_level = self.level_index

    def _copies(self):
        """``(staging, merged)`` block views of each stacked copy."""
        S, n = len(self.source_ranks), len(self.owner_ranks)
        staging, merged = self.staging.blocks(), self.merged.blocks()
        for c in range(self.staging.num_blocks // S):
            yield staging[c * S : (c + 1) * S], merged[c * n : (c + 1) * n]

    # ------------------------------------------------------------------
    def gather(self) -> None:
        """Assemble the merged ``x``/``b`` from the staged blocks.

        Every source rank posts the header of one dense ``(2, *cells)``
        block (the zero initial guess stacked with its restricted
        right-hand side); each owner copies the block to its cell
        offset once the header is delivered.

        Level-pinned ``rank_crash`` specs fire on entry; transfers
        touching a dead rank are skipped so the collective completes
        for the survivors with no partially staged state left in
        flight — the crash surfaces as :class:`RankDeadError` at the
        next residual reduction and the recovery ladder restores or
        rolls back the whole cycle.
        """
        level = self.level_index
        with self.tracer.span(
            "agglomerate-gather", l=level,
            sources=self.staging.num_blocks, owners=self.merged.num_blocks,
        ):
            self.poll_crashes(level)
            for staging, merged_levels in self._copies():
                for s, st in enumerate(staging):
                    if self._is_dead(self.source_ranks[s]) or self._is_dead(
                        self.owner_ranks[self.owner_of[s]]
                    ):
                        continue  # dead endpoint on either side: nothing moves
                    st.init_zero()  # the staged x is the zero initial guess
                    self._send(
                        level, self.source_ranks[s],
                        self.owner_ranks[self.owner_of[s]],
                        self.gather_tag, None,
                        2 * st.x.data.itemsize * math.prod(st.shape_cells),
                        "gather",
                        checksum=None if self.injector is None
                        else payload_checksum(_staged(st)),
                    )
                for o, merged in enumerate(merged_levels):
                    dst = self.owner_ranks[o]
                    if self._is_dead(dst):
                        continue  # a dead owner assembles nothing
                    dense = np.empty(
                        (2,) + tuple(merged.shape_cells), dtype=merged.dtype
                    )
                    partial = False
                    for s, offset in self.assignments[o]:
                        st = staging[s]
                        src = self.source_ranks[s]
                        if self._is_dead(src):
                            partial = True
                            continue  # source died before staging its block
                        payload = _staged(st)
                        self._receive(
                            level, dst, src, self.gather_tag, payload.nbytes,
                            lambda: payload,
                            context=(
                                f"rank {dst}'s agglomerated block from rank "
                                f"{src} at level {level}"
                            ),
                            what="agglomeration gather",
                        )
                        with self.tracer.child(dst).span(
                            "unpack", l=level, src=src, dst=dst,
                            tag=self.gather_tag, bytes=int(payload.nbytes),
                        ):
                            dense[(slice(None),) + _block(offset, st)] = payload
                    if partial:
                        continue  # never commit a partially assembled block
                    merged.x.set_interior(dense[0])
                    merged.b.set_interior(dense[1])

    def scatter(self) -> None:
        """Return the merged correction ``x`` to the staged blocks: each
        owner posts one header per block, and each source copies its
        block of the owner's correction once the header is delivered."""
        level = self.level_index
        with self.tracer.span(
            "agglomerate-scatter", l=level,
            sources=self.staging.num_blocks, owners=self.merged.num_blocks,
        ):
            self.poll_crashes(level)
            for staging, merged_levels in self._copies():
                corrections = {}
                for o, merged in enumerate(merged_levels):
                    src = self.owner_ranks[o]
                    if self._is_dead(src):
                        continue  # a dead owner returns nothing
                    dense_x = corrections[o] = merged.x.to_ijk()
                    for s, offset in self.assignments[o]:
                        if self._is_dead(self.source_ranks[s]):
                            continue  # no endpoint to deliver to
                        block = dense_x[_block(offset, staging[s])]
                        self._send(
                            level, src, self.source_ranks[s], self.scatter_tag,
                            None, block.nbytes, "scatter",
                            checksum=None if self.injector is None
                            else payload_checksum(block),
                        )
                for s, st in enumerate(staging):
                    dst = self.source_ranks[s]
                    o = self.owner_of[s]
                    src = self.owner_ranks[o]
                    if self._is_dead(dst) or self._is_dead(src):
                        continue  # staged block keeps its pre-crash correction
                    payload = corrections[o][_block(self._offset_of[s], st)]
                    self._receive(
                        level, dst, src, self.scatter_tag, payload.nbytes,
                        lambda: payload,
                        context=(
                            f"rank {dst}'s scattered correction from rank "
                            f"{src} at level {level}"
                        ),
                        what="agglomeration scatter",
                    )
                    with self.tracer.child(dst).span(
                        "unpack", l=level, src=src, dst=dst,
                        tag=self.scatter_tag, bytes=int(payload.nbytes),
                    ):
                        st.x.set_interior(payload)


def _staged(st: Level) -> np.ndarray:
    """A staged level's gather payload: its ``x`` stacked on its ``b``."""
    return np.stack([st.x.to_ijk(), st.b.to_ijk()])


def _block(offset, st: Level) -> tuple[slice, ...]:
    """Where staged level ``st`` sits in its owner's merged cells."""
    return tuple(slice(off, off + c) for off, c in zip(offset, st.shape_cells))


class Agglomerator:
    """Builds and owns everything agglomerated levels need.

    Per agglomerated level: the merged :class:`Level`, one block per
    active rank, and an exchanger scoped to the active ranks.  Per
    *transition* level additionally: the staging level, one block per
    previous-level active rank, and the :class:`AgglomerationTransfer`
    that moves the blocks.  The V-cycle consults :meth:`level_at` /
    :meth:`ranks_at` / :meth:`exchanger_at` and stays
    decomposition-agnostic.
    """

    def __init__(
        self,
        config,
        topology: CartTopology,
        comm,
        recorder=None,
        boundary=None,
        injector=None,
        max_retries: int = 3,
        tracer=None,
        copies: int = 1,
    ) -> None:
        from repro.gmg.boundary import BoundaryCondition

        if config.agglomerate_threshold is None:
            raise ValueError("config has no agglomeration threshold set")
        self.plan = AgglomerationPlan(
            config.rank_dims,
            config.global_cells,
            config.num_levels,
            config.agglomerate_threshold,
        )
        self.config = config
        self.topology = topology
        self.comm = comm
        self.copies = int(copies)
        self.tracer = tracer or NULL_TRACER
        boundary = boundary or BoundaryCondition.PERIODIC
        periodic = boundary is BoundaryCondition.PERIODIC
        dtype = np.float32 if config.precision == "fp32" else np.float64
        n = config.num_levels
        #: per level: the merged Level (active-rank blocks) or None
        self.merged_levels: list[Level | None] = [None] * n
        #: per level: the staging Level on the previous decomposition
        self.staging_levels: list[Level | None] = [None] * n
        #: per level: exchanger over the active ranks, or None
        self.exchangers: list[HaloExchange | None] = [None] * n
        #: per level: the gather/scatter transfer at a transition
        self.transfers: list[AgglomerationTransfer | None] = [None] * n

        for lev in range(1, n):
            if not self.plan.is_agglomerated(lev):
                continue
            D = self.plan.active_dims[lev]
            cells = self.plan.level_cells(lev)
            merged = make_level(
                lev, cells, config.brick_dim, config.level_spacing(lev),
                dtype=dtype,
                blocks=self.copies * self.plan.active_count(lev),
            )
            self.merged_levels[lev] = merged
            active = self.plan.active_ranks(lev)
            sub_topology = CartTopology(
                D,
                min(config.ranks_per_node, len(active)),
                periodic=periodic,
            )
            sub_comm = SubComm(
                comm, active,
                SUBCOMM_TAG_BASE + lev * SUBCOMM_TAG_STRIDE,
            )
            self.exchangers[lev] = HaloExchange(
                merged.blocks()[0].grid, sub_topology, sub_comm, recorder,
                boundary, injector=injector, max_retries=max_retries,
                tracer=tracer,
            )
            if not self.plan.transition_at(lev):
                continue
            S = self.plan.active_dims[lev - 1]
            s_cells = self.plan.level_cells(lev, S)
            staging = make_level(
                lev, s_cells, config.brick_dim, config.level_spacing(lev),
                dtype=dtype,
                blocks=self.copies * S[0] * S[1] * S[2],
            )
            self.staging_levels[lev] = staging
            owner_of, assignments = self._assign(S, D, s_cells)
            self.transfers[lev] = AgglomerationTransfer(
                lev, staging, merged,
                self.plan.active_ranks(lev - 1), active,
                owner_of, assignments, comm,
                recorder=recorder, injector=injector,
                max_retries=max_retries, tracer=tracer,
            )

    @staticmethod
    def _assign(
        S: tuple[int, int, int],
        D: tuple[int, int, int],
        s_cells: tuple[int, int, int],
    ) -> tuple[list[int], list[list[tuple[int, tuple[int, int, int]]]]]:
        """Map each source block to its owner and merged-cell offset."""
        t = tuple(si // di for si, di in zip(S, D))
        owner_of: list[int] = []
        assignments: list[list[tuple[int, tuple[int, int, int]]]] = [
            [] for _ in range(D[0] * D[1] * D[2])
        ]
        for s in range(S[0] * S[1] * S[2]):
            cs = _coords_of(s, S)
            co = tuple(c // tt for c, tt in zip(cs, t))
            o = _rank_of(co, D)
            owner_of.append(o)
            offset = tuple(
                (c - oc * tt) * sc
                for c, oc, tt, sc in zip(cs, co, t, s_cells)
            )
            assignments[o].append((s, offset))
        return owner_of, assignments

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """True when at least one level actually merges ranks."""
        return self.plan.any_agglomerated

    def level_at(self, lev: int) -> Level | None:
        """The merged compute level at ``lev`` (None when not merged)."""
        return self.merged_levels[lev]

    def ranks_at(self, lev: int) -> list[int] | None:
        """Global slot ids of the merged levels' owners — copy ``c``'s
        active rank ``r`` is ``c * topology.size + r`` (None when not
        merged)."""
        if self.merged_levels[lev] is None:
            return None
        active = self.plan.active_ranks(lev)
        size = self.topology.size
        return [c * size + r for c in range(self.copies) for r in active]

    def exchanger_at(self, lev: int):
        """Active-rank exchanger at ``lev`` (None when not merged)."""
        return self.exchangers[lev]

    def transfer_at(self, lev: int) -> AgglomerationTransfer | None:
        """The gather/scatter transfer entering ``lev`` (transitions)."""
        return self.transfers[lev]

    def channels(self) -> list[ResilientChannel]:
        """Every resilient channel this agglomerator opened (for the
        end-of-solve stale drain)."""
        out: list[ResilientChannel] = [
            ex for ex in self.exchangers if ex is not None
        ]
        out.extend(t for t in self.transfers if t is not None)
        return out
