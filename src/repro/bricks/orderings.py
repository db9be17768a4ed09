"""Brick storage orderings.

BrickLib stores bricks in a physical order chosen to make communication
cheap (Zhao et al., PPoPP'21): if the bricks a message carries occupy a
single contiguous range of storage, the message can be sent straight
out of (or received straight into) the field's backing buffer with no
pack/unpack kernel.

Two orderings are provided:

``lexicographic``
    Bricks stored in raveled extended-grid order.  Simple, but exchange
    regions are scattered across storage, so every message needs a
    gather (pack) on send and a scatter (unpack) on receive.

``surface-major``
    Bricks are grouped by *position class*: first the 26 ghost regions
    (each contiguous, in direction order), then the 26 interior surface
    classes, then the deep interior.  Every ghost (receive) region is a
    single contiguous segment, and every corner send region is a single
    segment; edge/face sends span 3/9 classes and are merged into as
    few contiguous segments as the class layout allows.

An ordering function maps ``(shape_bricks, ghost_bricks)`` to an array
``order`` where ``order[slot]`` is the extended-grid raveled index of
the brick stored in ``slot``.
"""

from __future__ import annotations

import numpy as np

from repro.bricks import brick_grid as _bg


def lexicographic_order(
    shape_bricks: tuple[int, int, int], ghost_bricks: int
) -> np.ndarray:
    """Identity ordering: slot k holds extended raveled index k."""
    ext = tuple(n + 2 * ghost_bricks for n in shape_bricks)
    return np.arange(int(np.prod(ext)), dtype=np.int64)


def _position_classes(
    shape_bricks: tuple[int, int, int], ghost_bricks: int
) -> np.ndarray:
    """Class id of every extended-grid brick.

    Ghost bricks get the direction index of their (unique) ghost region
    (0..26 skipping 13); interior bricks get ``27 + direction index`` of
    their surface class, with the deep interior landing on
    ``27 + 13 = 40``.  Per-dimension interior classification is ``-1``
    if within ``ghost_bricks`` of the low boundary, else ``+1`` if
    within ``ghost_bricks`` of the high boundary, else ``0`` (the low
    side wins when the two overlap on very small grids).
    """
    g = ghost_bricks
    ext = tuple(n + 2 * g for n in shape_bricks)
    per_dim = []
    for n, e in zip(shape_bricks, ext):
        c = np.zeros(e, dtype=np.int64)
        coords = np.arange(e) - g  # logical coordinate
        c[coords < 0] = -2  # low ghost
        c[coords >= n] = +2  # high ghost
        interior = (coords >= 0) & (coords < n)
        low_surface = interior & (coords < g)
        high_surface = interior & (coords >= n - g) & ~low_surface
        c[low_surface] = -1
        c[high_surface] = +1
        per_dim.append(c)

    cx = per_dim[0][:, None, None]
    cy = per_dim[1][None, :, None]
    cz = per_dim[2][None, None, :]
    is_ghost = (np.abs(cx) == 2) | (np.abs(cy) == 2) | (np.abs(cz) == 2)

    # Ghost direction: sign of any |2| component, 0 otherwise.  The
    # ghost regions partition the shell with the interior span mapped
    # to direction component 0.
    def ghost_comp(c: np.ndarray) -> np.ndarray:
        out = np.zeros_like(c)
        out[c == -2] = -1
        out[c == 2] = 1
        return out

    gx, gy, gz = ghost_comp(cx), ghost_comp(cy), ghost_comp(cz)
    ghost_dir = (gx + 1) * 9 + (gy + 1) * 3 + (gz + 1)

    # Surface class for interior bricks from the -1/0/+1 components.
    def surf_comp(c: np.ndarray) -> np.ndarray:
        out = np.zeros_like(c)
        out[c == -1] = -1
        out[c == 1] = 1
        return out

    sx, sy, sz = surf_comp(cx), surf_comp(cy), surf_comp(cz)
    surf_dir = (sx + 1) * 9 + (sy + 1) * 3 + (sz + 1)

    classes = np.where(is_ghost, ghost_dir, 27 + surf_dir)
    return np.broadcast_to(classes, ext).reshape(-1)


def surface_major_order(
    shape_bricks: tuple[int, int, int], ghost_bricks: int
) -> np.ndarray:
    """Communication-optimised ordering (see module docstring)."""
    classes = _position_classes(shape_bricks, ghost_bricks)
    ravel = np.arange(classes.size, dtype=np.int64)
    # Stable sort: group by class, lexicographic within each group.
    order = np.argsort(classes, kind="stable")
    return ravel[order]


def contiguous_segments(slots: np.ndarray) -> list[tuple[int, int]]:
    """Split a set of storage slots into maximal contiguous ranges.

    Returns half-open ``(start, stop)`` slot ranges covering exactly
    ``slots``.  A message whose bricks form one segment needs no
    packing; the segment count is the pack/unpack cost driver used by
    the performance model.
    """
    if len(slots) == 0:
        return []
    s = np.sort(np.asarray(slots, dtype=np.int64))
    steps = np.diff(s)
    # sorted, so duplicates are adjacent (np.unique would say the same,
    # at the price of importing numpy.ma: 20 ms of every first solve)
    if not steps.all():
        raise ValueError("slot set contains duplicates")
    breaks = np.nonzero(steps != 1)[0]
    starts = np.concatenate(([0], breaks + 1))
    stops = np.concatenate((breaks, [len(s) - 1]))
    return [(int(s[a]), int(s[b]) + 1) for a, b in zip(starts, stops)]


#: Registry of ordering strategies by name.
ORDERINGS = {
    "lexicographic": lexicographic_order,
    "surface-major": surface_major_order,
}


def num_segments(grid: "_bg.BrickGrid", d: tuple[int, int, int], kind: str) -> int:
    """Number of contiguous storage segments in an exchange region.

    ``kind`` is ``"send"`` or ``"recv"``; a count of 1 means the
    message is pack-free (send) or unpack-free (recv).
    """
    if kind == "send":
        region = grid.send_region_slots(d)
    elif kind == "recv":
        region = grid.ghost_region_slots(d)
    else:
        raise ValueError(f"kind must be 'send' or 'recv': {kind!r}")
    return len(contiguous_segments(region))
