"""Mixed-precision GMG via iterative refinement.

The paper's related work highlights three-precision AMG on the same
GPUs (Tsai, Beams & Anzt [28]): run the multigrid cycles in a cheap low
precision inside a high-precision defect-correction loop.  This module
implements that strategy on the brick solver:

* the *outer* loop keeps ``x`` and the residual in float64 and iterates
  ``r = b - A x``; ``x += e`` where ``e`` approximately solves
  ``A e = r``;
* the *inner* solver is a float32 brick GMG (same V-cycle, same
  communication-avoiding schedule) run for a fixed small number of
  cycles per outer iteration.

A float32-only solve stalls around the single-precision rounding floor
(residuals ~1e-4 for this problem's scaling); the refinement loop
restores the paper's 1e-10 convergence while the bandwidth-bound inner
cycles move half the bytes — the effect [28] measures on H100/MI250X/PVC.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.gmg.baseline import dense_apply_op
from repro.gmg.problem import CONVERGENCE_TOL, LevelConstants, rhs_field
from repro.gmg.solver import GMGSolver, SolverConfig
from repro.instrument import Recorder


@dataclass
class MixedSolveResult:
    """Outcome of a mixed-precision solve."""

    converged: bool
    outer_iterations: int
    residual_history: list[float]
    inner_vcycles_total: int
    recorder: Recorder = field(repr=False)

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1]


class MixedPrecisionSolver:
    """FP64 iterative refinement around an FP32 brick-GMG inner solver.

    Parameters
    ----------
    config:
        Solver configuration; its ``precision`` is overridden to fp32
        for the inner solver.  (The outer loop is serial and dense;
        distributed inner solves are supported.)
    inner_vcycles:
        Multigrid cycles per refinement step (1-2 is typical).
    """

    def __init__(self, config: SolverConfig, inner_vcycles: int = 2) -> None:
        if inner_vcycles < 1:
            raise ValueError(f"inner_vcycles must be positive: {inner_vcycles}")
        self.config = config
        self.inner_vcycles = inner_vcycles
        self.inner = GMGSolver(replace(config, precision="fp32"))
        self.constants = LevelConstants.for_spacing(config.level_spacing(0))
        n = config.global_cells
        self.b = rhs_field((n, n, n), self.constants.h)
        self.x = np.zeros_like(self.b)

    def _set_inner_rhs(self, residual: np.ndarray) -> None:
        per_rank = self.config.cells_per_rank
        for rank, level in enumerate(self.inner.depths[0].level.blocks()):
            o = self.inner.topology.subdomain_origin(rank, per_rank)
            sub = residual[
                o[0] : o[0] + per_rank[0],
                o[1] : o[1] + per_rank[1],
                o[2] : o[2] + per_rank[2],
            ]
            level.b.set_interior(sub)
            level.x.fill(0.0)

    def solve(
        self, tol: float = CONVERGENCE_TOL, max_outer: int = 60
    ) -> MixedSolveResult:
        """Refine until the fp64 residual max-norm drops below ``tol``."""
        history = []
        inner_cycles = 0
        for _ in range(max_outer):
            r = self.b - dense_apply_op(self.x, self.constants)
            history.append(float(np.abs(r).max()))
            if history[-1] <= tol:
                return MixedSolveResult(
                    converged=True,
                    outer_iterations=len(history) - 1,
                    residual_history=history,
                    inner_vcycles_total=inner_cycles,
                    recorder=self.inner.recorder,
                )
            # fp32 inner correction solve: A e = r
            scale = history[-1]  # keep the fp32 solve well-scaled
            self._set_inner_rhs(r / scale)
            for _ in range(self.inner_vcycles):
                self.inner.vcycle.run()
                inner_cycles += 1
            e = self.inner.solution().astype(np.float64) * scale
            self.x += e
        r = self.b - dense_apply_op(self.x, self.constants)
        history.append(float(np.abs(r).max()))
        return MixedSolveResult(
            converged=history[-1] <= tol,
            outer_iterations=len(history) - 1,
            residual_history=history,
            inner_vcycles_total=inner_cycles,
            recorder=self.inner.recorder,
        )

    def solution(self) -> np.ndarray:
        """The fp64 solution iterate."""
        return self.x.copy()
