"""V-cycle operators over bricked levels.

The stencil/pointwise operators (``applyOp``, ``smooth``,
``smooth+residual``, ``residual``) execute the DSL-generated kernels.
The inter-grid operators (``restriction``,
``interpolation+increment``) are the paper's "new operators in BrickLib
for multigrid" (Section III): they act brick-by-brick between levels
and need no neighbour communication, only the parent/child brick
mapping.

The brick-native inter-grid paths require both levels to share a brick
dimension (each coarse brick then covers exactly 2x2x2 fine bricks).
They run as generated C kernels (:mod:`repro.dsl.native`), bound once
per level pair and kept in the coarse level's ``workspace``; without a
compiler, or for storage a kernel cannot take, the NumPy path runs — it
is also the oracle the kernels are tested against.  On very small
coarse levels where the brick dimension shrinks, a dense NumPy path
runs instead.  Every path restricts with :func:`average_children`'s one
association, so the bits do not depend on which path ran or on the
shape of the level.
"""

from __future__ import annotations

import numpy as np

from repro.dsl import native
from repro.dsl.codegen import compile_stencil
from repro.dsl.library import APPLY_OP, RESIDUAL, SMOOTH, SMOOTH_RESIDUAL
from repro.gmg.level import Level
from repro.instrument import Recorder


def _run(stencil, level: Level, recorder: Recorder | None, op_name: str) -> None:
    kernel = compile_stencil(stencil, level.grid.brick_dim)
    kernel.apply(level.fields(), level.constants.as_dict(), level.workspace)
    if recorder is not None:
        recorder.kernel(level.index, op_name, level.num_points)


def apply_op(level: Level, recorder: Recorder | None = None) -> None:
    """``Ax = A x`` with the 7-point operator (requires valid halo)."""
    _run(APPLY_OP, level, recorder, "applyOp")


def smooth(level: Level, recorder: Recorder | None = None) -> None:
    """Point-Jacobi update ``x := x + gamma (A x - b)``."""
    _run(SMOOTH, level, recorder, "smooth")


def smooth_residual(level: Level, recorder: Recorder | None = None) -> None:
    """Fused Jacobi update + residual ``r = b - A x`` (pre-update x)."""
    _run(SMOOTH_RESIDUAL, level, recorder, "smooth+residual")


def residual(level: Level, recorder: Recorder | None = None) -> None:
    """``r = b - Ax`` only (convergence check)."""
    _run(RESIDUAL, level, recorder, "residual")


# ----------------------------------------------------------------------
# inter-grid operators
# ----------------------------------------------------------------------
def _child_slot_map(coarse: Level, fine: Level) -> np.ndarray:
    """``(num_coarse_interior, 2, 2, 2)`` fine slots under each coarse brick.

    Valid only when both levels share a brick dimension; coarse
    interior brick ``(cx, cy, cz)`` covers fine interior bricks
    ``(2cx + a, 2cy + b, 2cz + c)``.  Rows follow the coarse grid's
    ``interior_slots`` (lexicographic) order.
    """
    gc, gf = coarse.grid, fine.grid
    if gc.brick_dim != gf.brick_dim:
        raise ValueError("child map needs matching brick dimensions")
    if tuple(2 * n for n in gc.shape_bricks) != gf.shape_bricks:
        raise ValueError(
            f"fine grid {gf.shape_bricks} is not the 2x refinement of "
            f"coarse grid {gc.shape_bricks}"
        )
    n0, n1, n2 = gc.shape_bricks
    cx, cy, cz = np.meshgrid(
        np.arange(n0), np.arange(n1), np.arange(n2), indexing="ij"
    )
    out = np.empty((gc.num_interior, 2, 2, 2), dtype=np.int64)
    g = gf.ghost_bricks
    for a in range(2):
        for b in range(2):
            for c in range(2):
                slots = gf.grid_to_slot[
                    2 * cx + a + g, 2 * cy + b + g, 2 * cz + c + g
                ]
                out[:, a, b, c] = slots.reshape(-1)
    return out


def _assemble_fine_blocks(fine_data: np.ndarray, child: np.ndarray, B: int) -> np.ndarray:
    """Gather each coarse brick's 2Bx2Bx2B fine region as a dense block."""
    F = fine_data[child]  # (nc, 2, 2, 2, B, B, B)
    return F.transpose(0, 1, 4, 2, 5, 3, 6).reshape(len(child), 2 * B, 2 * B, 2 * B)


def average_children(cells: np.ndarray) -> np.ndarray:
    """``(..., n0, 2, n1, 2, n2, 2)`` fine cells to ``(..., n0, n1, n2)``
    coarse averages, in the one association every restriction uses:
    ``(((p00 + p01) + p10) + p11) / 8`` where ``pab`` adds the children
    ``(2I + a, 2J + b, 2K)`` and ``(2I + a, 2J + b, 2K + 1)``.

    The order is fixed per cell, so a level restricts to the same bits
    whatever its shape — one rank's block, a merged block, a stack of
    blocks — and the native kernel adds in exactly this order.  A NaN
    average is stored as the one quiet NaN ``np.nan``: when two NaNs
    meet in an add (say a NaN child and ``inf + -inf``), which one's
    bits survive follows operand order, and a compiler may swap the
    operands of an add.
    """
    p = [
        [cells[..., a, :, b, :, 0] + cells[..., a, :, b, :, 1] for b in (0, 1)]
        for a in (0, 1)
    ]
    avg = (((p[0][0] + p[0][1]) + p[1][0]) + p[1][1]) / 8
    np.copyto(avg, np.nan, where=np.isnan(avg))
    return avg


def _native_intergrid(op: str, coarse: Level, fine: Level, src, dst) -> bool:
    """Run ``op`` through its native kernel, bound once per level pair
    and kept in ``coarse.workspace``; ``False`` (with the reason noted
    once) sends the caller down the NumPy path."""
    backend = native.resolve_backend()
    if backend.reason is not None:
        native.note_fallback(backend.reason)
        return False
    key = ("intergrid", op)
    call = coarse.workspace.get(key)
    arrays = (src, dst)
    if call is None or not call.matches(backend, coarse.grid, arrays):
        call = coarse.workspace[key] = native.bind_intergrid(
            backend, op, coarse.grid, arrays, _child_table(fine, coarse)
        )
    if call.reason is not None:
        native.note_fallback(call.reason)
        return False
    call.run()
    return True


def restriction(
    fine: Level, coarse: Level, recorder: Recorder | None = None
) -> None:
    """FV restriction: ``b_coarse = average of 8 fine residual cells``
    (:func:`average_children`'s association).

    Acts brick-by-brick between levels; no neighbour communication.
    """
    B = coarse.grid.brick_dim
    if fine.grid.brick_dim == B:
        if not _native_intergrid(
            "restriction", coarse, fine, fine.r.data, coarse.b.data
        ):
            child = _restriction_child_map(fine, coarse)
            R = _assemble_fine_blocks(fine.r.data, child, B)
            coarse.b.data[coarse.grid.interior_slots] = average_children(
                R.reshape(len(child), B, 2, B, 2, B, 2)
            )
    else:
        n0, n1, n2 = coarse.shape_cells
        dense = fine.r.to_ijk().reshape(n0, 2, n1, 2, n2, 2)
        coarse.b.set_interior(average_children(dense))
    if recorder is not None:
        recorder.kernel(fine.index, "restriction", coarse.num_points)


def interpolation_increment(
    coarse: Level, fine: Level, recorder: Recorder | None = None
) -> None:
    """Piecewise-constant prolongation: ``x_fine += I(x_coarse)``.

    Each coarse cell increments its 8 fine children; brick-by-brick,
    no neighbour communication.
    """
    B = coarse.grid.brick_dim
    if fine.grid.brick_dim == B:
        if not _native_intergrid(
            "interpolation+increment", coarse, fine, coarse.x.data, fine.x.data
        ):
            child = _restriction_child_map(fine, coarse)
            C = coarse.x.data[coarse.grid.interior_slots]  # (nc, B, B, B)
            R = np.repeat(np.repeat(np.repeat(C, 2, axis=1), 2, axis=2), 2, axis=3)
            blocks = (
                R.reshape(len(child), 2, B, 2, B, 2, B)
                .transpose(0, 1, 3, 5, 2, 4, 6)
            )
            fine.x.data[child] += blocks
    else:
        C = coarse.x.to_ijk()
        dense = np.repeat(np.repeat(np.repeat(C, 2, axis=0), 2, axis=1), 2, axis=2)
        interior = fine.x.to_ijk() + dense
        fine.x.set_interior(interior)
    if recorder is not None:
        recorder.kernel(fine.index, "interpolation+increment", coarse.num_points)


def _restriction_child_map(fine: Level, coarse: Level) -> np.ndarray:
    """The child map of every interior brick of ``coarse``, cached on its
    workspace: one block's map (:func:`_child_slot_map`), offset into
    each block of a stacked pair — rows follow the coarse grid's
    ``interior_slots``, block by block."""
    key = ("child_map", fine.grid.shape_bricks, coarse.grid.shape_bricks)
    child = coarse.workspace.get(key)
    if child is None:
        fine0 = fine.blocks()[0]
        base = _child_slot_map(coarse.blocks()[0], fine0)
        S = fine0.grid.num_slots
        child = np.concatenate([base + k * S for k in range(fine.num_blocks)])
        coarse.workspace[key] = child
    return child


def _child_table(fine: Level, coarse: Level) -> np.ndarray:
    """The native kernels' ``(num_coarse_interior, 9)`` table: each
    coarse interior slot, then its 8 child slots (child ``(a, b, c)``
    in column ``1 + 4a + 2b + c``)."""
    child = _restriction_child_map(fine, coarse)
    slots = np.asarray(coarse.grid.interior_slots, dtype=np.int64)
    return np.ascontiguousarray(
        np.column_stack([slots, child.reshape(len(child), 8)]), dtype=np.int64
    )
