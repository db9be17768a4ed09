"""The stacked execution layout: every compute block in one index space.

The V-cycle simulates all ranks of the decomposition in one process,
and a solve service advances many requests at once; in both cases the
compute phases of one depth are the same kernels over congruent grids.
:class:`ExecutionEngine` stacks every depth's compute levels — one per
rank, one per *active* rank on agglomerated levels, ``capacity`` times
that for a service cohort — onto one
:class:`~repro.bricks.batch.BatchedGrid`, so smoothing, operator and
inter-grid phases are one kernel call over all blocks instead of a
Python loop over ranks.

A hierarchy builds its engine before it writes any problem data, so
adoption copies nothing: it binds each per-rank field's ``data`` to its
block of the zeroed stacked storage (``BrickedArray.bind_stacked``),
and that block is the field's only storage from then on.  Setup,
ghost exchanges, checkpoints, fault injection and solution assembly
address per-rank fields and so write the stacked arrays; the halo
exchange finds each field's block and copies the ghosts of every rank
of every cohort member in one pass.  The adjacency is block-diagonal,
so no kernel mixes blocks, and every float equals the per-rank
schedule's (``tests/oracle.py`` runs that schedule over the same
storage; the identity suites compare against it byte for byte).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bricks.batch import BatchedGrid
from repro.bricks.bricked_array import BrickedArray
from repro.gmg import operators as ops
from repro.gmg.level import Level
from repro.obs.tracer import NULL_TRACER


class _StackedLevel:
    """All blocks' state at one depth, fused into one level-shaped object.

    Duck-types the :class:`~repro.gmg.level.Level` surface the smoothers
    and operators consume (``grid``, ``constants``, ``fields()`` and one
    attribute per field, ``workspace``, ``num_points``, ``index``), so
    every kernel caller runs unchanged over the stacked storage.  The
    fields are whatever the base level declares in ``fields()`` — the
    solver's ``x/b/Ax/r``, plus the coefficient grids of a
    variable-coefficient level.  ``num_points`` is the interior-cell
    total across blocks, keeping recorded work sums equal to the
    per-rank schedule's.
    """

    def __init__(self, base_levels: Sequence[Level]) -> None:
        first = base_levels[0]
        self.index = first.index
        self.constants = first.constants
        self.dtype = first.dtype
        self.shape_cells = first.shape_cells
        self.grid = BatchedGrid(first.grid, len(base_levels))
        self._fields = {
            name: BrickedArray.zeros(self.grid, dtype=self.dtype)
            for name in first.fields()
        }
        for name, stacked_field in self._fields.items():
            setattr(self, name, stacked_field)
        self.workspace: dict = {}
        self._num_points = len(base_levels) * first.num_points

    @property
    def num_points(self) -> int:
        return self._num_points

    @property
    def ghost_depth_cells(self) -> int:
        return self.grid.ghost_cells

    def fields(self) -> dict[str, BrickedArray]:
        return dict(self._fields)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"_StackedLevel(index={self.index}, blocks={self.grid.num_ranks}, "
            f"cells={self.shape_cells})"
        )


class ExecutionEngine:
    """Adopts level hierarchies into the stacked layout.

    Parameters
    ----------
    level_groups:
        ``level_groups[lev]`` lists the levels that compute depth
        ``lev``: one per rank, one per active rank where the
        agglomerator merged the level, and the concatenation over
        members for a service cohort.

    Adoption binds every member field to its block of fresh, zeroed
    stacked storage and copies nothing: construct it before writing
    any problem data, as :class:`~repro.gmg.solver.Hierarchy` does.
    """

    def __init__(
        self, level_groups: Sequence[Sequence[Level]], tracer=None
    ) -> None:
        self.level_groups: list[list[Level]] = [list(g) for g in level_groups]
        if not self.level_groups or not all(self.level_groups):
            raise ValueError("need at least one level at every depth")
        self.num_levels = len(self.level_groups)
        self.tracer = tracer or NULL_TRACER
        #: per depth: the stacked level
        self.stacked: list[_StackedLevel] = []
        with self.tracer.span("engine-adopt"):
            self._adopt()
        self._seed_child_maps()

    def _adopt(self) -> None:
        """Stack every depth's compute group and bind member views."""
        for base in self.level_groups:
            st = _StackedLevel(base)
            self.stacked.append(st)
            for k, lv in enumerate(base):
                per_rank_fields = lv.fields()
                for name, stacked_field in st.fields().items():
                    per_rank_fields[name].bind_stacked(stacked_field, k)

    def _seed_child_maps(self) -> None:
        """Precompute stacked restriction child maps so the unmodified
        inter-grid operators run directly on stacked levels."""
        for lev in range(self.num_levels - 1):
            pair = self.stacked_intergrid_pair(lev)
            if pair is None:
                continue
            fine_st, coarse_st = pair
            fine_b = self.level_groups[lev][0]
            base_child = ops._child_slot_map(self.level_groups[lev + 1][0], fine_b)
            S_fine = fine_b.grid.num_slots
            stacked_child = np.concatenate(
                [base_child + k * S_fine for k in range(fine_st.grid.num_ranks)]
            )
            key = (
                "child_map",
                fine_st.grid.shape_bricks,
                coarse_st.grid.shape_bricks,
            )
            coarse_st.workspace[key] = stacked_child

    # ------------------------------------------------------------------
    def stacked_level(self, lev: int) -> _StackedLevel:
        """The stacked level at depth ``lev``."""
        return self.stacked[lev]

    def stacked_intergrid_pair(
        self, lev: int
    ) -> tuple[_StackedLevel, _StackedLevel] | None:
        """The (fine, coarse) stacked pair for the brick-native
        inter-grid path, or None when it does not apply."""
        if len(self.level_groups[lev]) != len(self.level_groups[lev + 1]):
            return None  # agglomeration transition: gather/scatter path
        fine, coarse = self.stacked[lev], self.stacked[lev + 1]
        if fine.grid.brick_dim != coarse.grid.brick_dim:
            return None  # those pairs use the per-rank dense fallback
        return fine, coarse

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExecutionEngine(levels={self.num_levels}, "
            f"blocks={[len(g) for g in self.level_groups]})"
        )
