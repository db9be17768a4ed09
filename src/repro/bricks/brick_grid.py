"""Logical brick-grid index arithmetic and adjacency.

A :class:`BrickGrid` describes how the bricks of one rank's subdomain
are arranged: ``shape_bricks`` interior bricks per dimension surrounded
by a ghost shell ``ghost_bricks`` deep.  Bricks live in an *extended*
grid of shape ``n + 2 g`` per dimension; logical coordinates run from
``-g`` (ghost) through ``n + g - 1`` and are stored offset by ``g`` so
they are non-negative.

The grid assigns every extended-grid brick a *storage slot* according
to a configurable ordering (see :mod:`repro.bricks.orderings`) and
precomputes the 27-point adjacency table used by stencil kernels and
the halo gather.
"""

from __future__ import annotations

import itertools
from functools import cached_property

import numpy as np

#: All 27 direction vectors in lexicographic order of ``(dx, dy, dz)``
#: with components in ``{-1, 0, +1}``.  Index 13 is the centre.
DIRECTIONS: tuple[tuple[int, int, int], ...] = tuple(
    itertools.product((-1, 0, 1), repeat=3)
)

#: Index of the ``(0, 0, 0)`` direction within :data:`DIRECTIONS`.
CENTER_DIRECTION_INDEX = 13

#: The 26 non-centre directions (faces, edges, corners).
NEIGHBOR_DIRECTIONS: tuple[tuple[int, int, int], ...] = tuple(
    d for d in DIRECTIONS if d != (0, 0, 0)
)


def direction_index(d: tuple[int, int, int]) -> int:
    """Return the index of direction ``d`` within :data:`DIRECTIONS`."""
    dx, dy, dz = d
    if not all(c in (-1, 0, 1) for c in (dx, dy, dz)):
        raise ValueError(f"direction components must be in {{-1,0,1}}: {d}")
    return (dx + 1) * 9 + (dy + 1) * 3 + (dz + 1)


def opposite_index(idx: int) -> int:
    """Return the direction index of the opposite direction."""
    if not 0 <= idx < 27:
        raise ValueError(f"direction index out of range: {idx}")
    return 26 - idx


def direction_kind(d: tuple[int, int, int]) -> str:
    """Classify a direction as ``'center'``/``'face'``/``'edge'``/``'corner'``."""
    nz = sum(1 for c in d if c != 0)
    return ("center", "face", "edge", "corner")[nz]


class BrickGrid:
    """Brick arrangement for one subdomain: index math + adjacency.

    Parameters
    ----------
    shape_bricks:
        Number of interior bricks per dimension, e.g. ``(8, 8, 8)``.
    brick_dim:
        Cells per brick edge (bricks are cubic, e.g. 8 or 4).
    ghost_bricks:
        Depth of the ghost shell in bricks.  The default of 1 matches
        the paper: the ghost zone is one brick (``brick_dim`` cells)
        deep, enabling up to ``brick_dim`` communication-avoiding
        smoothing steps per exchange.  0 leaves no shell: the grid is
        periodic in itself (its :attr:`adjacency` wraps), which is what
        one rank owning a whole periodic domain needs — no ghost to
        store, compute or exchange.
    ordering:
        Storage-order strategy, one of the keys of
        :data:`repro.bricks.orderings.ORDERINGS`
        (``"lexicographic"`` or ``"surface-major"``).
    """

    def __init__(
        self,
        shape_bricks: tuple[int, int, int],
        brick_dim: int,
        ghost_bricks: int = 1,
        ordering: str = "surface-major",
    ) -> None:
        from repro.bricks.orderings import ORDERINGS

        shape_bricks = tuple(int(n) for n in shape_bricks)
        if len(shape_bricks) != 3:
            raise ValueError("shape_bricks must have three dimensions")
        if any(n < 1 for n in shape_bricks):
            raise ValueError(f"need at least one brick per dim: {shape_bricks}")
        if brick_dim < 1:
            raise ValueError(f"brick_dim must be positive: {brick_dim}")
        if ghost_bricks < 0:
            raise ValueError(f"ghost_bricks must be non-negative: {ghost_bricks}")
        if ordering not in ORDERINGS:
            raise ValueError(
                f"unknown ordering {ordering!r}; choose from {sorted(ORDERINGS)}"
            )

        self.shape_bricks = shape_bricks
        self.brick_dim = int(brick_dim)
        self.ghost_bricks = int(ghost_bricks)
        self.ordering = ordering
        #: value-identity of the derived index tables (adjacency,
        #: orderings, region maps): two grids with equal keys are
        #: interchangeable for precomputed gather/refresh plans
        self.geometry_key = (
            "brick", shape_bricks, self.brick_dim, self.ghost_bricks, ordering
        )

        #: extended grid shape (interior + ghost shell), bricks per dim
        self.extended_shape = tuple(n + 2 * self.ghost_bricks for n in shape_bricks)
        #: total number of storage slots (= bricks in the extended grid)
        self.num_slots = int(np.prod(self.extended_shape))
        #: number of interior bricks
        self.num_interior = int(np.prod(shape_bricks))

        order = ORDERINGS[ordering](shape_bricks, self.ghost_bricks)
        # ``order[k]`` is the extended-grid raveled index stored in slot k.
        if order.shape != (self.num_slots,):
            raise AssertionError("ordering returned wrong number of slots")
        #: slot -> extended raveled grid index
        self._slot_to_ravel = np.ascontiguousarray(order)
        #: extended raveled grid index -> slot
        self._ravel_to_slot = np.empty(self.num_slots, dtype=np.int64)
        self._ravel_to_slot[order] = np.arange(self.num_slots, dtype=np.int64)
        #: grid_to_slot[x, y, z] for offset (stored) extended coordinates
        self.grid_to_slot = self._ravel_to_slot.reshape(self.extended_shape)

    # ------------------------------------------------------------------
    # basic geometry
    # ------------------------------------------------------------------
    @property
    def cells_per_brick(self) -> int:
        """Number of cells in one brick."""
        return self.brick_dim**3

    @property
    def shape_cells(self) -> tuple[int, int, int]:
        """Interior cells per dimension."""
        return tuple(n * self.brick_dim for n in self.shape_bricks)

    @property
    def ghost_cells(self) -> int:
        """Ghost-zone depth in cells (= ghost bricks * brick dim)."""
        return self.ghost_bricks * self.brick_dim

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BrickGrid(shape_bricks={self.shape_bricks}, "
            f"brick_dim={self.brick_dim}, ghost_bricks={self.ghost_bricks}, "
            f"ordering={self.ordering!r})"
        )

    # ------------------------------------------------------------------
    # coordinate transforms
    # ------------------------------------------------------------------
    def slot_of(self, logical: tuple[int, int, int]) -> int:
        """Storage slot of the brick at *logical* coordinates.

        Logical coordinates run from ``-ghost_bricks`` to
        ``shape_bricks + ghost_bricks - 1`` per dimension.
        """
        g = self.ghost_bricks
        stored = tuple(c + g for c in logical)
        for c, e in zip(stored, self.extended_shape):
            if not 0 <= c < e:
                raise IndexError(f"brick coordinate out of range: {logical}")
        return int(self.grid_to_slot[stored])

    @cached_property
    def slot_to_grid(self) -> np.ndarray:
        """``(num_slots, 3)`` stored (offset) coordinates of each slot."""
        coords = np.stack(
            np.unravel_index(self._slot_to_ravel, self.extended_shape), axis=1
        )
        return np.ascontiguousarray(coords.astype(np.int64))

    @cached_property
    def interior_slots(self) -> np.ndarray:
        """Slots of interior bricks in lexicographic interior order.

        The order is over interior grid coordinates, which makes
        dense-array round-trips (:meth:`BrickedArray.to_ijk`)
        deterministic regardless of the storage ordering.
        """
        g = self.ghost_bricks
        n0, n1, n2 = self.shape_bricks
        sl = self.grid_to_slot[g : g + n0, g : g + n1, g : g + n2]
        return np.ascontiguousarray(sl.reshape(-1))

    @cached_property
    def ghost_slots(self) -> np.ndarray:
        """Slots of all ghost-shell bricks (sorted by slot)."""
        mask = np.ones(self.extended_shape, dtype=bool)
        g = self.ghost_bricks
        n0, n1, n2 = self.shape_bricks
        mask[g : g + n0, g : g + n1, g : g + n2] = False
        return np.sort(self.grid_to_slot[mask])

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------
    @cached_property
    def adjacency(self) -> np.ndarray:
        """``(num_slots, 27)`` neighbour slot table.

        ``adjacency[s, direction_index(d)]`` is the slot of the brick
        one step along ``d`` from the brick in slot ``s``.  With a ghost
        shell, neighbours that would fall outside the extended grid are
        *clamped to self*.  Only a ghost cell deeper than the valid
        depth reads through such a neighbour — after sweep ``k`` of a
        window, deeper than ``ghost_cells - (k + 1) * radius`` — and
        nothing reads that cell before the next exchange (the
        valid-depth rule in DESIGN.md): the native kernels never compute
        it, the NumPy kernels compute a clamp artefact there.  A
        ghostless grid (``ghost_bricks=0``) is periodic in itself: each
        neighbour wraps to the brick at the periodic coordinate, so a
        stencil reads exactly what a shell filled by periodic wrap
        would have held.
        """
        coords = self.slot_to_grid  # (num_slots, 3) stored coords
        ext = np.asarray(self.extended_shape, dtype=np.int64)
        adj = np.empty((self.num_slots, 27), dtype=np.int64)
        flat = self.grid_to_slot.reshape(-1)
        for di, d in enumerate(DIRECTIONS):
            nb = coords + np.asarray(d, dtype=np.int64)
            if self.ghost_bricks == 0:
                nb = np.mod(nb, ext)
            else:
                inside = np.all((nb >= 0) & (nb < ext), axis=1)
                nb = np.where(inside[:, None], nb, coords)
            ravel = (nb[:, 0] * ext[1] + nb[:, 1]) * ext[2] + nb[:, 2]
            adj[:, di] = flat[ravel]
        return adj

    # ------------------------------------------------------------------
    # exchange regions
    # ------------------------------------------------------------------
    def _region_slots(self, ranges: tuple[tuple[int, int], ...]) -> np.ndarray:
        """Slots of the box given by stored-coordinate half-open ranges,
        in lexicographic grid order."""
        (a0, b0), (a1, b1), (a2, b2) = ranges
        sl = self.grid_to_slot[a0:b0, a1:b1, a2:b2]
        return np.ascontiguousarray(sl.reshape(-1))

    def ghost_region_slots(self, d: tuple[int, int, int]) -> np.ndarray:
        """Slots of the ghost region in direction ``d``.

        The 26 ghost regions are disjoint and tile the ghost shell:
        along each dimension the region covers ``[-g, 0)`` for ``-1``,
        the interior ``[0, n)`` for ``0`` and ``[n, n+g)`` for ``+1``
        (logical coordinates).
        """
        if d == (0, 0, 0):
            raise ValueError("no ghost region for the centre direction")
        g = self.ghost_bricks
        ranges = []
        for c, n in zip(d, self.shape_bricks):
            if c == -1:
                ranges.append((0, g))
            elif c == 0:
                ranges.append((g, g + n))
            else:
                ranges.append((g + n, g + n + g))
        return self._region_slots(tuple(ranges))

    def send_region_slots(self, d: tuple[int, int, int]) -> np.ndarray:
        """Slots of the interior bricks the neighbour along ``d`` needs.

        This is the source region matching the neighbour's ghost region
        in direction ``-d``: along each dimension ``[n-g, n)`` for
        ``+1``, all of ``[0, n)`` for ``0`` and ``[0, g)`` for ``-1``.
        Unlike ghost regions, send regions for different directions
        overlap (a corner brick participates in face, edge and corner
        sends).
        """
        if d == (0, 0, 0):
            raise ValueError("no send region for the centre direction")
        g = self.ghost_bricks
        ranges = []
        for c, n in zip(d, self.shape_bricks):
            if g > n:
                raise ValueError(
                    "ghost shell deeper than the interior: "
                    f"ghost_bricks={g} > {n} bricks"
                )
            if c == -1:
                ranges.append((g, g + g))
            elif c == 0:
                ranges.append((g, g + n))
            else:
                ranges.append((g + n - g, g + n))
        return self._region_slots(tuple(ranges))

    def region_num_bricks(self, d: tuple[int, int, int]) -> int:
        """Number of bricks in the exchange region for direction ``d``."""
        g = self.ghost_bricks
        count = 1
        for c, n in zip(d, self.shape_bricks):
            count *= n if c == 0 else g
        return count

    def region_num_bytes(self, d: tuple[int, int, int], itemsize: int = 8) -> int:
        """Message payload in bytes for the region in direction ``d``."""
        return self.region_num_bricks(d) * self.cells_per_brick * itemsize

    # ------------------------------------------------------------------
    # local (single-rank) periodic wrap
    # ------------------------------------------------------------------
    @cached_property
    def periodic_wrap_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ghost_slots, source_slots)`` for a periodic self-exchange.

        When a rank owns the entire (periodic) domain, ghost bricks are
        filled from the interior brick at the wrapped logical
        coordinate.  Returns matching index arrays so the fill is just
        ``data[ghost] = data[source]``.
        """
        g = self.ghost_bricks
        n = np.asarray(self.shape_bricks, dtype=np.int64)
        ghost = self.ghost_slots
        logical = self.slot_to_grid[ghost] - g
        wrapped = np.mod(logical, n)
        stored = wrapped + g
        ext = np.asarray(self.extended_shape, dtype=np.int64)
        ravel = (stored[:, 0] * ext[1] + stored[:, 1]) * ext[2] + stored[:, 2]
        src = self.grid_to_slot.reshape(-1)[ravel]
        return ghost, np.ascontiguousarray(src)
