"""Fine-grain data blocking: the brick layout substrate.

This package is the Python analogue of BrickLib's data layout layer
(Zhao et al., P3HPC'18 / SC'19 / PPoPP'21).  A *brick* is a small cubic
block of cells (e.g. ``8**3`` or ``4**3``) stored contiguously in
memory.  A field over a subdomain is stored as an array of bricks plus
an indirection structure (:class:`BrickGrid`) that maps logical brick
coordinates to storage slots and records the 27-point brick adjacency.

Key properties reproduced from the paper:

* ghost *bricks* instead of ghost cells — the ghost zone is one brick
  deep, which enables communication-avoiding smoothing (Section V);
* storage-order permutations — the ``surface-major`` ordering groups
  each of the 26 ghost regions into a single contiguous slot range so
  ghost data can be received without an unpacking pass, and groups
  surface bricks by position class to minimise the number of contiguous
  segments a send must gather (PPoPP'21's layout optimisation);
* neighbour indirection — stencils read halo values through the
  adjacency table rather than through a padded array.
"""

from repro.bricks.batch import BatchedGrid
from repro.bricks.brick_grid import (
    CENTER_DIRECTION_INDEX,
    DIRECTIONS,
    NEIGHBOR_DIRECTIONS,
    BrickGrid,
    direction_index,
    opposite_index,
)
from repro.bricks.bricked_array import BrickedArray
from repro.bricks.halo import gather_extended
from repro.bricks.plan_cache import PlanLRUCache, cache_stats
from repro.bricks.orderings import (
    ORDERINGS,
    contiguous_segments,
    lexicographic_order,
    surface_major_order,
)

__all__ = [
    "BrickGrid",
    "BrickedArray",
    "BatchedGrid",
    "DIRECTIONS",
    "NEIGHBOR_DIRECTIONS",
    "CENTER_DIRECTION_INDEX",
    "direction_index",
    "opposite_index",
    "gather_extended",
    "PlanLRUCache",
    "cache_stats",
    "ORDERINGS",
    "lexicographic_order",
    "surface_major_order",
    "contiguous_segments",
]
