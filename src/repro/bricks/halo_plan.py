"""Contiguous per-offset gather — the ``bricks.gather`` benchmark rung.

Nothing in the solver calls this module: kernels read their operands
through the native C adjacency walk or through
:func:`repro.bricks.halo.gather_extended`.  It stays because the
benchmark ladder (``benchmarks/ladder``, which this package may not
break) times :class:`OffsetGatherPlan` as its ``bricks.gather.l<k>.us``
and ``bricks.plan_build_ms`` rungs — one ``np.take`` over a precomputed
flat-index table, the contiguous reference the other gathers are read
against.  Delete it together with those rungs (ROADMAP item 3).
"""

from __future__ import annotations

import numpy as np


def _offset_maps(brick_dim: int, offset) -> tuple[np.ndarray, np.ndarray]:
    """``(dirs, cell)`` of shape ``(B**3,)``: for brick cell ``c``
    (row-major), the neighbour direction index the shifted read
    ``c + offset`` falls into and the flat source cell within it."""
    B = int(brick_dim)
    if any(abs(int(d)) > B for d in offset):
        raise ValueError(f"offset {tuple(offset)} exceeds brick dimension {B}")
    comps, locals_ = [], []
    for d in offset:
        coord = np.arange(B) + int(d)
        comp = np.where(coord < 0, -1, np.where(coord >= B, 1, 0))
        comps.append(comp)
        locals_.append(coord - comp * B)
    cx, cy, cz = np.meshgrid(*comps, indexing="ij")
    lx, ly, lz = np.meshgrid(*locals_, indexing="ij")
    dirs = ((cx + 1) * 9 + (cy + 1) * 3 + (cz + 1)).reshape(-1)
    return dirs, ((lx * B + ly) * B + lz).reshape(-1)


class OffsetGatherPlan:
    """For each read offset, a contiguous ``(num_slots, B, B, B)`` copy
    of the field shifted by that offset through the adjacency — all
    ``K`` offsets in one ``np.take``.  ``gather(data)[k]`` equals the
    slice of :func:`~repro.bricks.halo.gather_extended`'s block at
    ``offsets[k]``.  ``halo_radius`` must be 0 (packed storage, the
    only storage there is)."""

    def __init__(self, grid, offsets, halo_radius: int = 0) -> None:
        if halo_radius != 0:
            raise ValueError(f"halo_radius must be 0: {halo_radius}")
        B = grid.brick_dim
        self.brick_dim = B
        self.offsets = tuple(tuple(int(d) for d in o) for o in offsets)
        if not self.offsets:
            raise ValueError("need at least one read offset")
        adj = np.ascontiguousarray(grid.adjacency)
        blocks = []
        for off in self.offsets:
            dirs, cell = _offset_maps(B, off)
            blocks.append(adj[:, dirs] * B**3 + cell)
        #: (K, num_slots, B^3) flat source index of every gathered cell
        self.flat = np.ascontiguousarray(np.stack(blocks))

    def gather(self, source: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """All offsets of the packed storage ``source`` as one
        ``(K, num_slots, B, B, B)`` array (into ``out`` when given)."""
        K, S, _ = self.flat.shape
        B = self.brick_dim
        shape = (K, S, B, B, B)
        if out is None:
            return np.take(source.reshape(-1), self.flat).reshape(shape)
        if out.shape != shape or out.dtype != source.dtype:
            raise ValueError(
                f"out has shape {out.shape}/{out.dtype}, expected "
                f"{shape}/{source.dtype}"
            )
        # the indices are in bounds by construction; 'clip' only skips
        # the slow bounds-checked store that mode='raise' takes with out=
        np.take(source.reshape(-1), self.flat, out=out.reshape(K, S, -1), mode="clip")
        return out


#: the name the ladder builds its plans through
offset_plan_for = OffsetGatherPlan
