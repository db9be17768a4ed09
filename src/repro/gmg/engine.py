"""Batched brick-parallel execution engine.

The seed execution path is faithful to the paper's algorithms but pays
three overheads the paper's GPU implementation does not: every kernel
invocation re-gathers the full extended halo buffer, every pipeline
stage is a separate kernel launch, and every per-rank compute phase is
a Python loop.  The engine removes all three — *without changing a
single floating-point operation*:

* **halo-resident storage** (``EngineConfig.halo_resident``): the
  halo-read field ``x`` is allocated in the extended layout
  (:class:`~repro.bricks.bricked_array.BrickedArray` with
  ``halo_radius=1``); kernels read the extended storage in place and a
  refresh copies only the 26 shell regions through the adjacency
  (:mod:`repro.bricks.halo_plan`) instead of re-copying the entire
  field;
* **kernel fusion** (``EngineConfig.fuse_kernels``): smoothers execute
  the fused pipeline stencils of :mod:`repro.dsl.fusion` — one
  generated kernel, one gather/refresh per smoothing iteration;
* **cross-rank batching** (``EngineConfig.batch_ranks``): congruent
  per-rank fields are stacked on a
  :class:`~repro.bricks.batch.BatchedGrid` so smoothing, operator and
  inter-grid phases issue one vectorised NumPy call over
  ``num_ranks * num_slots`` bricks instead of a Python rank loop.

Adoption rebinds each per-rank field's ``data`` to a view of the
stacked storage (``BrickedArray.bind_stacked``), so ghost exchanges,
checkpoints, fault injection and solution assembly — all of which
address per-rank fields — alias the stacked arrays automatically and
need no changes; the field remembers its block, which lets the halo
exchange copy ghosts over the whole stack at once.  Every configuration
is bit-identical to the seed path (asserted by the identity suite):
identical expression trees and identical NumPy evaluation order
produce byte-equal floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.bricks.batch import BatchedGrid
from repro.bricks.bricked_array import BrickedArray
from repro.gmg import operators as ops
from repro.gmg.level import Level
from repro.obs.tracer import NULL_TRACER

#: halo width of every stencil in the library (7-point operator)
STENCIL_RADIUS = 1


@dataclass(frozen=True)
class EngineConfig:
    """Which engine optimisations are active.

    All three default to off; the seed path runs when none is set.
    Any combination is valid and bit-identical to the seed.
    """

    halo_resident: bool = False
    fuse_kernels: bool = False
    batch_ranks: bool = False

    @property
    def enabled(self) -> bool:
        return self.halo_resident or self.fuse_kernels or self.batch_ranks

    def describe(self) -> str:
        parts = [
            name
            for name, on in (
                ("halo-resident", self.halo_resident),
                ("fused", self.fuse_kernels),
                ("batched", self.batch_ranks),
            )
            if on
        ]
        return "+".join(parts) if parts else "seed"


class _StackedLevel:
    """All ranks' state at one depth, fused into one level-shaped object.

    Duck-types the :class:`~repro.gmg.level.Level` surface the smoothers
    and operators consume (``grid``, ``constants``, ``fields()``,
    ``workspace``, ``num_points``, ``index``), so every existing kernel
    caller runs unchanged over the stacked storage.  ``num_points`` is
    the interior-cell total across ranks, keeping recorded work sums
    equal to the per-rank path's.
    """

    fused_kernels = False
    #: armed by the V-cycle driver in overlap mode (see Level.overlap_ctx)
    overlap_ctx = None

    def __init__(self, base_levels: Sequence[Level], ext_storage: bool) -> None:
        first = base_levels[0]
        self.index = first.index
        self.constants = first.constants
        self.dtype = first.dtype
        self.shape_cells = first.shape_cells
        self.grid = BatchedGrid(first.grid, len(base_levels))
        x_radius = STENCIL_RADIUS if ext_storage else 0
        self.x = BrickedArray.zeros(self.grid, dtype=self.dtype, halo_radius=x_radius)
        self.b = BrickedArray.zeros(self.grid, dtype=self.dtype)
        self.Ax = BrickedArray.zeros(self.grid, dtype=self.dtype)
        self.r = BrickedArray.zeros(self.grid, dtype=self.dtype)
        self.workspace: dict = {}
        self._num_points = len(base_levels) * first.num_points

    @property
    def num_points(self) -> int:
        return self._num_points

    @property
    def ghost_depth_cells(self) -> int:
        return self.grid.ghost_cells

    def fields(self) -> dict[str, BrickedArray]:
        return {"x": self.x, "b": self.b, "Ax": self.Ax, "r": self.r}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"_StackedLevel(index={self.index}, ranks={self.grid.num_ranks}, "
            f"cells={self.shape_cells})"
        )


class ExecutionEngine:
    """Adopts per-rank level hierarchies into the configured layout.

    Construct *after* problem setup (``b`` initialised): adoption copies
    the current field contents into the new storage and rebinds the
    per-rank ``data`` attributes, so any state present at adoption time
    is preserved.
    """

    def __init__(
        self,
        rank_levels: Sequence[Sequence[Level]],
        config: EngineConfig,
        tracer=None,
        level_groups: Sequence[Sequence[Level]] | None = None,
        group_ranks: Sequence[Sequence[int]] | None = None,
    ) -> None:
        self.config = config
        self.rank_levels = rank_levels
        self.num_ranks = len(rank_levels)
        self.num_levels = len(rank_levels[0])
        self.tracer = tracer or NULL_TRACER
        #: per depth: the levels that actually compute.  The default is
        #: the rectangular one-per-rank grid; with agglomeration the
        #: coarse groups shrink to the merged levels of the active
        #: ranks, and the stacked storage batches exactly those.
        self.level_groups: list[list[Level]] = (
            [list(g) for g in level_groups]
            if level_groups is not None
            else [
                [levels[lev] for levels in rank_levels]
                for lev in range(self.num_levels)
            ]
        )
        if len(self.level_groups) != self.num_levels:
            raise ValueError(
                f"need one level group per depth: {len(self.level_groups)} "
                f"!= {self.num_levels}"
            )
        #: per depth: the global rank id owning each group member
        #: (labels adoption trace spans truthfully on merged levels)
        self.group_ranks: list[list[int]] = (
            [list(g) for g in group_ranks]
            if group_ranks is not None
            else [list(range(len(g))) for g in self.level_groups]
        )
        #: per depth: the stacked level, or None when batching is off
        self.stacked: list[_StackedLevel | None] = [None] * self.num_levels
        #: physical extended storage pays off only without fusion: the
        #: fused kernels gather through per-offset plans that read
        #: neighbour *interiors* in place, so the halo never
        #: materialises anywhere — residency's goal — while operands
        #: stay packed (contiguous), which profiles decisively faster
        #: than strided extended views in NumPy
        self.ext_storage = config.halo_resident and not config.fuse_kernels
        with self.tracer.span("engine-adopt", mode=config.describe()):
            if config.batch_ranks:
                self._adopt_batched()
            elif self.ext_storage:
                self._adopt_resident()
            if config.fuse_kernels:
                for group in self.level_groups:
                    for lv in group:
                        lv.fused_kernels = True
                for st in self.stacked:
                    if st is not None:
                        st.fused_kernels = True
            for group in self.level_groups:
                for lv in group:
                    for f in lv.fields().values():
                        f.planned_gather = True
            for st in self.stacked:
                if st is not None:
                    for f in st.fields().values():
                        f.planned_gather = True

    # ------------------------------------------------------------------
    def _adopt_resident(self) -> None:
        """Single-layout mode: give every compute level's ``x`` the
        extended storage in place (only ``x`` is ever halo-read by the
        library's stencils; ``Ax``/``b``/``r`` are pointwise)."""
        for group in self.level_groups:
            for lv in group:
                resident = BrickedArray(
                    lv.grid, dtype=lv.dtype, halo_radius=STENCIL_RADIUS
                )
                resident.data[...] = lv.x.data
                lv.x = resident

    def _adopt_batched(self) -> None:
        """Stack every depth's compute group and rebind member views.

        Each member's copy-in is traced on its owning rank's child
        timeline, so the adoption cost shows up in the per-rank
        breakdown next to the rank's communication spans.
        """
        for lev in range(self.num_levels):
            base = self.level_groups[lev]
            st = _StackedLevel(base, self.ext_storage)
            self.stacked[lev] = st
            for k, lv in enumerate(base):
                rank = self.group_ranks[lev][k]
                with self.tracer.child(rank).span(
                    "adopt-rank", l=lev, rank=rank
                ):
                    sl = st.grid.rank_slice(k)
                    for name, stacked_field in st.fields().items():
                        per_rank = getattr(lv, name)
                        stacked_field.data[sl] = per_rank.data
                        per_rank.bind_stacked(stacked_field, k)
        self._seed_child_maps()

    def _seed_child_maps(self) -> None:
        """Precompute stacked restriction child maps so the unmodified
        inter-grid operators run directly on stacked levels."""
        for lev in range(self.num_levels - 1):
            fine_group = self.level_groups[lev]
            coarse_group = self.level_groups[lev + 1]
            if len(fine_group) != len(coarse_group):
                continue  # agglomeration transition: staged per-source
            fine_st, coarse_st = self.stacked[lev], self.stacked[lev + 1]
            fine_b, coarse_b = fine_group[0], coarse_group[0]
            if fine_b.grid.brick_dim != coarse_b.grid.brick_dim:
                continue  # those pairs use the per-rank dense fallback
            base_child = ops._child_slot_map(coarse_b, fine_b)
            S_fine = fine_b.grid.num_slots
            stacked_child = np.concatenate(
                [base_child + k * S_fine for k in range(len(fine_group))]
            )
            key = (
                "child_map",
                fine_st.grid.shape_bricks,
                coarse_st.grid.shape_bricks,
            )
            coarse_st.workspace[key] = stacked_child

    # ------------------------------------------------------------------
    def stacked_level(self, lev: int) -> _StackedLevel | None:
        """The stacked level at depth ``lev`` (None unless batching)."""
        return self.stacked[lev]

    def stacked_intergrid_pair(
        self, lev: int
    ) -> tuple[_StackedLevel, _StackedLevel] | None:
        """The (fine, coarse) stacked pair for the brick-native
        inter-grid path, or None when it does not apply."""
        if not self.config.batch_ranks:
            return None
        if len(self.level_groups[lev]) != len(self.level_groups[lev + 1]):
            return None  # agglomeration transition: gather/scatter path
        fine, coarse = self.stacked[lev], self.stacked[lev + 1]
        if fine is None or coarse is None:
            return None
        if fine.grid.brick_dim != coarse.grid.brick_dim:
            return None
        return fine, coarse

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExecutionEngine({self.config.describe()}, ranks={self.num_ranks})"
