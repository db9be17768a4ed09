"""One multigrid depth: brick grid + the four fields, for every block.

Each level holds the solution ``x``, right-hand side ``b``, operator
application ``Ax`` and residual ``r`` as bricked fields sharing one
grid, plus the level's stencil constants.  A level stores ``blocks``
congruent subdomains — every rank of the decomposition, times every
stacked copy of a service cohort — in one allocation per field over a
:class:`~repro.bricks.batch.BatchedGrid`, so a kernel over the level is
one call over all of them; :meth:`Level.blocks` views each subdomain as
a one-block level of its own.  The brick dimension shrinks with the
level when a level's subdomain becomes smaller than the configured
brick (the paper never descends that far — its coarsest 16^3 level
still fits 8^3 bricks — but small test problems do).
"""

from __future__ import annotations

import copy

import numpy as np

from repro.bricks.batch import BatchedGrid
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


def ghost_shell_bricks(num_ranks: int, periodic: bool) -> int:
    """Ghost-shell depth (bricks) of every level of a decomposition.

    One rank owning a whole periodic domain is its own neighbour: its
    grids wrap their adjacency, so its levels carry no shell and have
    nothing to exchange.  Every other decomposition — more ranks, or a
    walled rank whose boundary ghosts are synthesised — keeps the
    paper's one-brick shell.
    """
    return 0 if num_ranks == 1 and periodic else 1


def make_level(
    index: int,
    shape_cells: tuple[int, int, int],
    requested_brick_dim: int,
    h: float,
    dtype: np.dtype | type = np.float64,
    blocks: int = 1,
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
    return Level(index, shape_cells, bdim, h, dtype=dtype, blocks=blocks)


class Level:
    """State of one multigrid depth over ``blocks`` congruent subdomains.

    ``shape_cells`` is one block's interior.  With one block the level's
    ``grid`` is that block's :class:`BrickGrid`; with more it is a
    :class:`~repro.bricks.batch.BatchedGrid` of them (block-major, and
    block-diagonal: no kernel mixes blocks), and every field is one
    allocation over all blocks.  :meth:`blocks` returns one view per
    block — a one-block level over the shared base grid whose fields are
    that block's rows of this level's storage.

    ``ghost_bricks`` is the base grid's shell depth: 1 (the paper's
    one-brick ghost zone, refreshed by a halo exchange) or 0 for a rank
    that owns a whole periodic domain — its grid wraps its own
    adjacency, so the level stores and computes interior bricks only
    and has nothing to exchange.

    Storage is always surface-major: every ghost slot precedes every
    interior slot, so a block's interior is its slot tail
    (:meth:`interior`).
    """

    def __init__(
        self,
        index: int,
        shape_cells: tuple[int, int, int],
        brick_dim: int,
        h: float,
        dtype: np.dtype | type = np.float64,
        ghost_bricks: int = 1,
        blocks: int = 1,
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
        base = BrickGrid(shape_bricks, brick_dim, ghost_bricks=ghost_bricks)
        self.grid = base if blocks == 1 else BatchedGrid(base, blocks)
        self.num_blocks = int(blocks)
        self.x = BrickedArray.zeros(self.grid, dtype=self.dtype)
        self.b = BrickedArray.zeros(self.grid, dtype=self.dtype)
        self.Ax = BrickedArray.zeros(self.grid, dtype=self.dtype)
        self.r = BrickedArray.zeros(self.grid, dtype=self.dtype)
        #: reusable halo buffers and kernel bindings
        self.workspace: dict = {}
        # cached: read once per kernel invocation on the hot path
        s0, s1, s2 = shape_cells
        self._num_points = s0 * s1 * s2 * self.num_blocks
        self._views: list[Level] | None = None

    @property
    def num_points(self) -> int:
        """Interior cells of this level, over all its blocks."""
        return self._num_points

    @property
    def ghost_depth_cells(self) -> int:
        """Halo validity (cells) granted by one exchange; 0 on a
        ghostless level, which has no exchange and no halo budget."""
        return self.grid.ghost_cells

    def fields(self) -> dict[str, BrickedArray]:
        """All fields keyed by their DSL grid names."""
        return {"x": self.x, "b": self.b, "Ax": self.Ax, "r": self.r}

    def interior(self, field: BrickedArray) -> np.ndarray:
        """``field``'s interior as a ``(blocks, bricks, B, B, B)`` view:
        each block's slot tail, in storage order — fine for a max or an
        elementwise update, not for a sum whose rounding depends on
        order (those gather through ``grid.interior_slots``)."""
        S = self.grid.num_slots // self.num_blocks
        lo = S - self.grid.num_interior // self.num_blocks
        return field.data.reshape(self.num_blocks, S, *field.data.shape[1:])[:, lo:]

    def blocks(self) -> list["Level"]:
        """One view per block, in storage order (made once): the level
        itself when it has one block."""
        if self.num_blocks == 1:
            # not cached: a level holding itself would be a reference
            # cycle, freed only by the cyclic collector
            return [self]
        if self._views is None:
            self._views = [self._view(k) for k in range(self.num_blocks)]
        return self._views

    def _view(self, k: int) -> "Level":
        """Block ``k`` as a one-block level of the same type: the base
        grid, block ``k``'s rows of every field and a workspace of its
        own."""
        view = copy.copy(self)
        view.grid = self.grid.base
        view.num_blocks = 1
        view.workspace = {}
        view._num_points = self._num_points // self.num_blocks
        rows = self.grid.rank_slice(k)
        for name, field in self.fields().items():
            setattr(view, name, BrickedArray(view.grid, field.data[rows], self.dtype))
        return view

    def init_zero(self) -> None:
        """The V-cycle's ``initZero``: reset the level's correction."""
        self.x.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Level(index={self.index}, cells={self.shape_cells}, "
            f"brick_dim={self.grid.brick_dim}, blocks={self.num_blocks}, "
            f"h={self.constants.h:g})"
        )
