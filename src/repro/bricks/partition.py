"""Interior/shell brick partition for split-phase (overlap) kernels.

Communication–computation overlap splits every halo-dependent kernel
into two passes: an *interior* pass over bricks whose stencil footprint
never reads a ghost brick (safe to evaluate while halo envelopes are in
flight) and a *shell* pass over the remainder (must wait for
``HaloExchange.finish()``).

The partition is purely geometric.  A stored slot with offset
coordinates ``c`` (see :attr:`BrickGrid.slot_to_grid`) is
interior-deep iff ``g + 1 <= c[d] < g + n[d] - 1`` for every dimension
``d`` — its full 26-neighbourhood then consists of *owned* bricks, so
no gather of radius ``<= brick_dim`` (the DSL's legality bound) can
touch a ghost slot.  Everything else is shell: the owned boundary layer
*and* every ghost brick, because kernels evaluate redundantly over the
ghost shell (the communication-avoiding validity scheme) and ghost
values are rewritten by the exchange.

``interior`` and ``shell`` are each emitted in ascending slot order;
their concatenation covers ``range(num_slots)`` exactly once.  Within a
pass the generated kernel evaluates the same expression tree per
element as the full-grid kernel, and NumPy's elementwise ufuncs are
exactly rounded per element regardless of how the slot axis is chunked,
so splitting reorders no floating-point operation — overlap mode is
bit-identical to the synchronous reference.

Partitions are keyed by ``geometry_key`` like the exchange plans, with
a weak per-grid fallback for duck-typed grids;
:func:`clear_partition_cache` lets communicator repair prove the
rebuilt path re-derives everything from geometry.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.bricks.plan_cache import PlanLRUCache

#: partitions keyed by grid geometry (value identity), shared across
#: solver instances; LRU-bounded so a long-lived service walking many
#: geometries cannot pin unbounded slot tables
_PARTITION_CACHE = PlanLRUCache("partition")

#: per-grid fallback for duck-typed grids without a geometry key
_GRID_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


class BrickPartition:
    """Interior/shell slot split of one grid.

    Works for both :class:`~repro.bricks.brick_grid.BrickGrid` and the
    batched :class:`~repro.bricks.batch.BatchedGrid` — the latter's
    ``slot_to_grid`` tiles the per-rank coordinates, so each rank block
    is partitioned independently and identically.
    """

    def __init__(self, grid) -> None:
        self.grid = grid
        coords = np.asarray(grid.slot_to_grid)
        g = int(grid.ghost_bricks)
        n = np.asarray(grid.shape_bricks, dtype=np.int64)
        lo = g + 1
        hi = g + n - 1  # exclusive; empty when shape_bricks[d] < 3
        deep = np.all((coords >= lo) & (coords < hi), axis=1)
        #: (n_int,) ascending slots whose 26-neighbourhood is owned
        self.interior = np.ascontiguousarray(np.flatnonzero(deep))
        #: (n_shell,) ascending slots: owned boundary + all ghost bricks
        self.shell = np.ascontiguousarray(np.flatnonzero(~deep))
        self.num_slots = int(coords.shape[0])

    def select(self, which: str) -> np.ndarray:
        """The slot subset of pass ``which`` (``interior``/``shell``)."""
        if which == "interior":
            return self.interior
        if which == "shell":
            return self.shell
        raise ValueError(f"unknown pass {which!r}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BrickPartition(interior={self.interior.size}, "
            f"shell={self.shell.size} of {self.num_slots} slots)"
        )


def partition_for(grid) -> BrickPartition:
    """The (cached) :class:`BrickPartition` of ``grid``."""
    geometry = getattr(grid, "geometry_key", None)
    if geometry is not None:
        part = _PARTITION_CACHE.get(geometry)
        if part is None:
            part = BrickPartition(grid)
            _PARTITION_CACHE.put(geometry, part)
        return part
    part = _GRID_CACHE.get(grid)
    if part is None:
        part = BrickPartition(grid)
        _GRID_CACHE[grid] = part
    return part


def clear_partition_cache() -> int:
    """Drop every cached partition (see the module docstring).

    Returns the number of partitions dropped.
    """
    return _PARTITION_CACHE.clear()
