"""Cross-rank brick stacking: one index space over congruent subdomains.

The V-cycle simulates every rank of the decomposition in one process,
so the per-rank compute phases are embarrassingly batchable: all ranks
share one :class:`~repro.bricks.brick_grid.BrickGrid` per level and
their kernels perform identical index arithmetic.  A
:class:`BatchedGrid` stacks ``num_ranks`` copies of a base grid into a
single slot space of ``num_ranks * num_slots`` bricks whose adjacency
is block-diagonal (brick neighbourhoods never cross rank blocks —
cross-rank coupling happens only through the explicit ghost exchange).

A :class:`~repro.bricks.bricked_array.BrickedArray` on a batched grid
is then a *stacked field*: rank ``k``'s slice is
``data[k * S : (k + 1) * S]``, and one vectorised kernel invocation
covers every rank — replacing the Python rank loop with a single NumPy
call, which is where the launch-count reduction of the paper's batched
GPU execution shows up in this reproduction.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.bricks.brick_grid import BrickGrid


class BatchedGrid:
    """``num_ranks`` congruent brick grids fused into one slot space.

    Duck-types the :class:`BrickGrid` surface that fields, kernels,
    halo plans and smoothers consume (``brick_dim``, ``num_slots``,
    ``adjacency``, ``interior_slots``, ``slot_to_grid``, …).  The
    per-rank block structure is exposed through ``base``,
    ``num_ranks`` and :meth:`rank_slice`.
    """

    def __init__(self, base: BrickGrid, num_ranks: int) -> None:
        if num_ranks < 1:
            raise ValueError(f"num_ranks must be positive: {num_ranks}")
        self.base = base
        self.num_ranks = int(num_ranks)
        self.brick_dim = base.brick_dim
        self.ghost_bricks = base.ghost_bricks
        self.shape_bricks = base.shape_bricks
        self.ordering = base.ordering
        self.extended_shape = base.extended_shape
        #: slots per rank block
        self.slots_per_rank = base.num_slots
        self.num_slots = self.num_ranks * base.num_slots
        self.num_interior = self.num_ranks * base.num_interior
        #: derived index tables are determined by the base geometry and
        #: the rank count (see BrickGrid.geometry_key)
        self.geometry_key = ("batched", base.geometry_key, self.num_ranks)

    @property
    def cells_per_brick(self) -> int:
        return self.base.cells_per_brick

    @property
    def shape_cells(self) -> tuple[int, int, int]:
        return self.base.shape_cells

    @property
    def ghost_cells(self) -> int:
        return self.base.ghost_cells

    def rank_slice(self, rank: int) -> slice:
        """Storage slice of rank ``rank``'s block."""
        if not 0 <= rank < self.num_ranks:
            raise IndexError(f"rank out of range: {rank}")
        S = self.slots_per_rank
        return slice(rank * S, (rank + 1) * S)

    def _offsets(self) -> np.ndarray:
        S = self.slots_per_rank
        return (np.arange(self.num_ranks, dtype=np.int64) * S)[:, None]

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Block-diagonal neighbour table: base adjacency per rank,
        offset into that rank's slot block."""
        base = self.base.adjacency
        out = np.concatenate(
            [base + k * self.slots_per_rank for k in range(self.num_ranks)]
        )
        return np.ascontiguousarray(out)

    @cached_property
    def interior_slots(self) -> np.ndarray:
        return np.ascontiguousarray(
            (self.base.interior_slots[None, :] + self._offsets()).reshape(-1)
        )

    @cached_property
    def ghost_slots(self) -> np.ndarray:
        return np.ascontiguousarray(
            (self.base.ghost_slots[None, :] + self._offsets()).reshape(-1)
        )

    @cached_property
    def slot_to_grid(self) -> np.ndarray:
        """Per-rank stored coordinates, tiled — colour parity and other
        coordinate-derived masks are identical in every rank block."""
        return np.ascontiguousarray(
            np.tile(self.base.slot_to_grid, (self.num_ranks, 1))
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BatchedGrid({self.base!r}, num_ranks={self.num_ranks})"
