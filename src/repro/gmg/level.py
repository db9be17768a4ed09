"""One multigrid level of one rank: brick grid + the four fields.

Each level holds the solution ``x``, right-hand side ``b``, operator
application ``Ax`` and residual ``r`` as bricked fields sharing one
:class:`~repro.bricks.brick_grid.BrickGrid`, plus the level's stencil
constants.  The brick dimension shrinks with the level when a level's
subdomain becomes smaller than the configured brick (the paper never
descends that far — its coarsest 16^3 level still fits 8^3 bricks —
but small test problems do).
"""

from __future__ import annotations

import numpy as np

from repro.bricks.brick_grid import BrickGrid
from repro.bricks.bricked_array import BrickedArray
from repro.gmg.problem import LevelConstants


def level_brick_dim(cells_per_dim: int, requested: int) -> int:
    """Brick dimension actually used for a level.

    Uses the requested brick size when it divides the level's cells,
    otherwise the largest divisor of ``cells_per_dim`` not exceeding
    the request (power-of-two sizes always divide cleanly).
    """
    if cells_per_dim < 1 or requested < 1:
        raise ValueError("cells_per_dim and requested must be positive")
    b = min(requested, cells_per_dim)
    while cells_per_dim % b != 0:
        b -= 1
    return b


def make_level(
    index: int,
    shape_cells: tuple[int, int, int],
    requested_brick_dim: int,
    h: float,
    ordering: str = "surface-major",
    dtype: np.dtype | type = np.float64,
) -> "Level":
    """A :class:`Level` using the largest brick the subdomain supports.

    The solver's per-rank hierarchy and the agglomerator's merged
    levels both size bricks the same way: the configured brick
    dimension, shrunk via :func:`level_brick_dim` when the (possibly
    merged) subdomain is smaller than the request.  A merged level is
    8x larger per agglomeration step, so it typically supports a
    *larger* brick than the tiny per-rank level it replaces — which is
    exactly where the latency win comes from (bigger halo budget,
    fewer exchanges per visit).
    """
    bdim = level_brick_dim(min(shape_cells), requested_brick_dim)
    return Level(index, shape_cells, bdim, h, ordering, dtype=dtype)


class Level:
    """State of one multigrid level on one rank.

    ``ghost_bricks`` is the :class:`BrickGrid`'s shell depth: 1 (the
    paper's one-brick ghost zone, refreshed by a halo exchange) or 0
    for a rank that owns a whole periodic domain — its grid wraps its
    own adjacency, so the level stores and computes interior bricks
    only and has nothing to exchange.
    """

    def __init__(
        self,
        index: int,
        shape_cells: tuple[int, int, int],
        brick_dim: int,
        h: float,
        ordering: str = "surface-major",
        dtype: np.dtype | type = np.float64,
        ghost_bricks: int = 1,
    ) -> None:
        shape_cells = tuple(int(c) for c in shape_cells)
        if any(c % brick_dim for c in shape_cells):
            raise ValueError(
                f"level {index}: cells {shape_cells} not divisible by "
                f"brick_dim {brick_dim}"
            )
        self.index = int(index)
        self.shape_cells = shape_cells
        self.constants = LevelConstants.for_spacing(h)
        self.dtype = np.dtype(dtype)
        shape_bricks = tuple(c // brick_dim for c in shape_cells)
        self.grid = BrickGrid(
            shape_bricks, brick_dim, ghost_bricks=ghost_bricks, ordering=ordering
        )
        self.x = BrickedArray.zeros(self.grid, dtype=self.dtype)
        self.b = BrickedArray.zeros(self.grid, dtype=self.dtype)
        self.Ax = BrickedArray.zeros(self.grid, dtype=self.dtype)
        self.r = BrickedArray.zeros(self.grid, dtype=self.dtype)
        #: reusable halo buffers, keyed by (grid name, shape)
        self.workspace: dict = {}
        # cached: read once per kernel invocation on the hot path
        s0, s1, s2 = shape_cells
        self._num_points = s0 * s1 * s2

    @property
    def num_points(self) -> int:
        """Interior cells on this rank at this level."""
        return self._num_points

    @property
    def ghost_depth_cells(self) -> int:
        """Halo validity (cells) granted by one exchange; 0 on a
        ghostless level, which has no exchange and no halo budget."""
        return self.grid.ghost_cells

    def fields(self) -> dict[str, BrickedArray]:
        """All fields keyed by their DSL grid names."""
        return {"x": self.x, "b": self.b, "Ax": self.Ax, "r": self.r}

    def init_zero(self) -> None:
        """The V-cycle's ``initZero``: reset the level's correction."""
        self.x.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Level(index={self.index}, cells={self.shape_cells}, "
            f"brick_dim={self.grid.brick_dim}, h={self.constants.h:g})"
        )
