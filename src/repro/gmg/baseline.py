"""HPGMG-style baseline: conventional array layout, no CA.

The paper's Figure 4 compares the brick solver against HPGMG-CUDA, a
proxy for finite-volume GMG with a conventional ``ijk`` ghost-cell
layout.  This module provides the functional equivalent:

* fields are plain dense arrays (one address stream per ``(i, j)``
  pencil, versus the bricks' one stream per brick);
* the ghost zone is one *cell* deep, so every smoothing iteration is
  preceded by an exchange (no communication avoiding);
* each exchange requires gathering every face/edge/corner region into
  a send buffer (packing) and scattering on receive (unpacking).

The numerics are identical to the brick solver by construction —
operator expressions are evaluated in exactly the same association
order as the DSL-generated kernels — so residual histories must match
to round-off; tests enforce this.  Performance differences (layout
traffic, message counts, pack/unpack passes) are what the machine
models price for Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bricks.brick_grid import NEIGHBOR_DIRECTIONS, direction_kind
from repro.gmg.problem import CONVERGENCE_TOL, LevelConstants, rhs_field
from repro.instrument import Recorder


def dense_apply_op(x: np.ndarray, c: LevelConstants) -> np.ndarray:
    """7-point operator with periodic wrap, matching the DSL kernel's
    association order: ``alpha*x + beta*(((((x+e)+w)+n)+s)+u)+d)``."""
    neighbor_sum = (
        (
            (
                (
                    (np.roll(x, -1, 0) + np.roll(x, 1, 0))
                    + np.roll(x, -1, 1)
                )
                + np.roll(x, 1, 1)
            )
            + np.roll(x, -1, 2)
        )
        + np.roll(x, 1, 2)
    )
    return (c.alpha * x) + (c.beta * neighbor_sum)


@dataclass
class _ArrayLevel:
    constants: LevelConstants
    x: np.ndarray
    b: np.ndarray

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.x.shape


class ArrayGMG:
    """Conventional-layout GMG on the paper's model problem (serial).

    Parameters mirror :class:`repro.gmg.solver.SolverConfig`'s subset
    relevant to the baseline.  Instrumentation records the exchange and
    kernel schedule the conventional algorithm would issue (one
    26-neighbour, ghost-width-1 exchange per smoothing iteration, with
    packing) so the performance model can price it.
    """

    def __init__(
        self,
        global_cells: int = 32,
        num_levels: int = 3,
        max_smooths: int = 12,
        bottom_smooths: int = 100,
        tol: float = CONVERGENCE_TOL,
        max_vcycles: int = 100,
    ) -> None:
        if global_cells % (1 << (num_levels - 1)):
            raise ValueError(
                f"{global_cells} cells cannot support {num_levels} levels"
            )
        self.global_cells = int(global_cells)
        self.num_levels = int(num_levels)
        self.max_smooths = int(max_smooths)
        self.bottom_smooths = int(bottom_smooths)
        self.tol = float(tol)
        self.max_vcycles = int(max_vcycles)
        self.recorder = Recorder()

        self.levels: list[_ArrayLevel] = []
        for lev in range(num_levels):
            n = global_cells >> lev
            h = (1 << lev) / global_cells
            self.levels.append(
                _ArrayLevel(
                    constants=LevelConstants.for_spacing(h),
                    x=np.zeros((n, n, n)),
                    b=np.zeros((n, n, n)),
                )
            )
        self.levels[0].b[...] = rhs_field(
            (global_cells,) * 3, 1.0 / global_cells
        )
        self.residuals: list[np.ndarray] = [np.zeros_like(lv.x) for lv in self.levels]

    # ------------------------------------------------------------------
    def _record_exchange(self, lev: int) -> None:
        """Account one conventional ghost-width-1 exchange at ``lev``.

        Message sizes are the 26 surface regions of the dense array
        with one-cell depth; every message needs packing (the region is
        strided in ``ijk`` storage) — modelled as one segment per
        pencil touched.
        """
        n = self.levels[lev].shape[0]
        self.recorder.exchange(lev)
        for d in NEIGHBOR_DIRECTIONS:
            cells = 1
            pencils = 1
            for c in d:
                cells *= n if c == 0 else 1
            # contiguous runs: innermost dim contiguous only when d[2]==0
            if d[2] == 0:
                pencils = cells // n
            else:
                pencils = cells
            self.recorder.message(
                lev,
                cells * 8,
                direction_kind(d),
                segments=max(pencils, 1),
                self_message=True,
            )

    def _smooth_level(self, lev: int, iterations: int, with_residual: bool) -> None:
        level = self.levels[lev]
        c = level.constants
        n_points = level.x.size
        for _ in range(iterations):
            self._record_exchange(lev)
            Ax = dense_apply_op(level.x, c)
            self.recorder.kernel(lev, "applyOp", n_points)
            if with_residual:
                self.residuals[lev] = level.b - Ax
                self.recorder.kernel(lev, "smooth+residual", n_points)
            else:
                self.recorder.kernel(lev, "smooth", n_points)
            level.x = (level.x + (c.gamma * Ax)) - (c.gamma * level.b)

    def run_vcycle(self) -> None:
        """One V-cycle (Algorithm 2) on dense arrays."""
        L = self.num_levels
        for lev in range(L - 1):
            self._smooth_level(lev, self.max_smooths, with_residual=True)
            r = self.residuals[lev]
            n = r.shape[0] // 2
            coarse_b = r.reshape(n, 2, n, 2, n, 2).mean(axis=(1, 3, 5))
            self.levels[lev + 1].b[...] = coarse_b
            self.levels[lev + 1].x[...] = 0.0
            self.recorder.kernel(lev, "restriction", coarse_b.size)
            self.recorder.kernel(lev + 1, "initZero", coarse_b.size)
        self._smooth_level(L - 1, self.bottom_smooths, with_residual=False)
        for lev in range(L - 2, -1, -1):
            xc = self.levels[lev + 1].x
            self.levels[lev].x += np.repeat(
                np.repeat(np.repeat(xc, 2, 0), 2, 1), 2, 2
            )
            self.recorder.kernel(lev, "interpolation+increment", xc.size)
            self._smooth_level(lev, self.max_smooths, with_residual=True)

    def max_norm_residual(self) -> float:
        """Max-norm residual on the finest level."""
        level = self.levels[0]
        self._record_exchange(0)
        Ax = dense_apply_op(level.x, level.constants)
        self.recorder.kernel(0, "applyOp", level.x.size)
        r = level.b - Ax
        self.recorder.kernel(0, "residual", level.x.size)
        self.residuals[0] = r
        self.recorder.reduction()
        return float(np.max(np.abs(r)))

    def solve(self) -> list[float]:
        """Algorithm 1; returns the residual history."""
        history = [self.max_norm_residual()]
        while history[-1] > self.tol and len(history) <= self.max_vcycles:
            self.run_vcycle()
            history.append(self.max_norm_residual())
        return history
