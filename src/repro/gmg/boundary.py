"""Domain boundary conditions.

The paper's experiments use a periodic cube, but notes BrickLib
"can also generate code for ... domain boundary conditions"
(Section IV-C).  This module provides the cell-centred homogeneous
conditions used by finite-volume codes:

* ``PERIODIC`` — ghost bricks filled by wrap-around (the paper setup);
* ``DIRICHLET`` — ``u = 0`` on the wall: the ghost cell at distance d
  beyond a face mirrors the interior cell at distance d with opposite
  sign (linear interpolation through zero at the face);
* ``NEUMANN`` — ``du/dn = 0``: same mirror with positive sign.

Ghost bricks outside the domain in several axes (edges/corners) compose
the per-axis mirrors; the sign is ``(-1)**(mirrored axes)`` for
Dirichlet and ``+1`` for Neumann.  :class:`BoundaryFill` precomputes,
for every ghost brick of a rank that faces the domain boundary in a
given direction set, the mirrored source brick and the axis flips, so
each exchange applies the condition with a handful of vectorised
assignments.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.bricks.brick_grid import BrickGrid
from repro.bricks.bricked_array import BrickedArray


class BoundaryCondition(enum.Enum):
    """Supported homogeneous boundary conditions."""

    PERIODIC = "periodic"
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


class BoundaryFill:
    """Apply a mirror boundary condition to a rank's outward ghosts.

    Parameters
    ----------
    grid:
        The level's brick grid.
    outward:
        Per-axis pair of flags ``((low0, high0), (low1, high1),
        (low2, high2))``: True where this rank's subdomain touches the
        (non-periodic) domain boundary on that side.
    condition:
        DIRICHLET or NEUMANN (PERIODIC ghosts travel via exchange).
    """

    def __init__(
        self,
        grid: BrickGrid,
        outward: tuple[tuple[bool, bool], ...],
        condition: BoundaryCondition,
    ) -> None:
        if condition is BoundaryCondition.PERIODIC:
            raise ValueError("periodic ghosts are exchanged, not synthesised")
        if len(outward) != 3 or any(len(p) != 2 for p in outward):
            raise ValueError(f"outward must be three (low, high) pairs: {outward}")
        self.grid = grid
        self.outward = tuple((bool(a), bool(b)) for a, b in outward)
        self.condition = condition
        # group ghost slots by their axis-flip signature
        self._groups: list[tuple[np.ndarray, np.ndarray, tuple[bool, ...], float]] = []
        self._build()

    def _build(self) -> None:
        g = self.grid
        n = np.asarray(g.shape_bricks)
        ghost = g.ghost_slots
        logical = g.slot_to_grid[ghost] - g.ghost_bricks
        below = logical < 0
        above = logical >= n
        # an axis is *mirrored* when the ghost brick lies beyond a side
        # of this subdomain that coincides with the domain boundary;
        # lying beyond an interior side is fine — the mirror source then
        # reads the exchanged ghost data of that neighbour, so the fill
        # must run after all receives complete.
        mirrored = np.zeros((len(ghost), 3), dtype=bool)
        for d in range(3):
            lo, hi = self.outward[d]
            mirrored[:, d] = (below[:, d] & lo) | (above[:, d] & hi)
        # we own every ghost brick beyond at least one boundary side
        owned = mirrored.any(axis=1)

        # per-axis mirror: l = -1 -> 0 (below), l = n -> n - 1 (above),
        # applied only on mirrored axes
        mirror_coord = logical.copy()
        for d in range(3):
            sel = mirrored[:, d] & below[:, d]
            mirror_coord[sel, d] = -1 - logical[sel, d]
            sel = mirrored[:, d] & above[:, d]
            mirror_coord[sel, d] = 2 * n[d] - 1 - logical[sel, d]

        stored = mirror_coord + g.ghost_bricks
        flat = g.grid_to_slot.reshape(-1)
        ext = np.asarray(g.extended_shape)
        ravel = (stored[:, 0] * ext[1] + stored[:, 1]) * ext[2] + stored[:, 2]
        src = flat[ravel]

        for signature in np.ndindex(2, 2, 2):
            sig = np.asarray(signature, dtype=bool)
            sel = owned & (mirrored == sig[None, :]).all(axis=1)
            if not sel.any():
                continue
            if self.condition is BoundaryCondition.DIRICHLET:
                sign = -1.0 if sig.sum() % 2 else 1.0
            else:
                sign = 1.0
            self._groups.append(
                (ghost[sel], src[sel], tuple(bool(s) for s in sig), sign)
            )

    @property
    def num_ghost_bricks(self) -> int:
        """Ghost bricks this fill owns (boundary-facing)."""
        return sum(len(dst) for dst, *_ in self._groups)

    def apply(self, field: BrickedArray) -> None:
        """Fill the boundary-facing ghost bricks of ``field``."""
        g = field.grid
        if (
            g.shape_bricks != self.grid.shape_bricks
            or g.brick_dim != self.grid.brick_dim
            or g.ordering != self.grid.ordering
        ):
            raise ValueError("field grid incompatible with the boundary fill's grid")
        self.fill(field.data)

    def fill(self, data: np.ndarray) -> None:
        """Fill the boundary-facing ghost bricks of one block's storage
        (``(grid.num_slots, B, B, B)``, e.g. a block of a stacked field)."""
        for dst, src, flips, sign in self._groups:
            block = data[src]
            for axis, flip in enumerate(flips):
                if flip:
                    block = np.flip(block, axis=axis + 1)
            data[dst] = sign * block
