"""The reference every identity suite compares :class:`GMGSolver` against.

The seed schedule, kept because it is the simplest thing that computes
the paper's Algorithms 1 and 2 on bricks: per-rank levels, a Python loop
over ranks (``VCycle(engine=None)``), each smoothing iteration as the
paper's kernel sequence — ``applyOp``, then ``smooth`` or
``smooth+residual`` — one kernel launch per stage and per sweep, every
launch through ``gather_extended`` and the generated NumPy function.
Nothing in it is stacked, fused, windowed, overlapped or native, so
agreement with it byte for byte pins all of those at once.

The oracle shares the hierarchy (levels, exchangers, agglomerator,
right-hand side) and the resilient driver with the solver under test;
what it replaces is how kernels execute.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.dsl.codegen import compile_stencil
from repro.dsl.library import SMOOTH, SMOOTH_RESIDUAL
from repro.gmg import GMGSolver, Hierarchy, JacobiSmoother, SolverConfig
from repro.gmg import operators as ops

from tests.conftest import numpy_path


class StagedJacobi(JacobiSmoother):
    """Algorithm 2's smoothing iteration, one kernel per stage."""

    def iterate(self, level, with_residual, recorder, sweeps=1):
        stencil = SMOOTH_RESIDUAL if with_residual else SMOOTH
        kernel = compile_stencil(stencil, level.grid.brick_dim)
        for _ in range(sweeps):
            ops.apply_op(level, recorder)
            kernel.apply(level.fields(), self._constants(level), level.workspace)
            if recorder is not None:
                recorder.kernel(level.index, stencil.name, level.num_points)


class OracleSolver(GMGSolver):
    """``config``'s hierarchy under the seed schedule (synchronous
    exchanges whatever ``config.overlap`` says)."""

    def __init__(self, config: SolverConfig, **kwargs) -> None:
        Hierarchy.__init__(self, replace(config, overlap=False), **kwargs)
        self.engine = None
        self.vcycle = self.make_vcycle(None)
        # the other smoothers' updates are plain NumPy already
        if config.smoother == "jacobi":
            staged = StagedJacobi(**dict(config.smoother_options))
            staged.tracer = self.vcycle.smoother.tracer
            self.vcycle.smoother = staged

    def solve(self):
        with numpy_path():
            return super().solve()


def stored_fields(solver) -> list[np.ndarray]:
    """``x``, ``Ax`` and ``r`` of every compute level, ghosts included."""
    return [
        getattr(level, name).data
        for group in solver.compute_groups()[0]
        for level in group
        for name in ("x", "Ax", "r")
    ]


def assert_matches_oracle(config: SolverConfig, **solver_kwargs):
    """Solve ``config`` with :class:`GMGSolver` and with the oracle and
    require equal status, residual history, assembled solution and
    stored fields.  Returns the solver's ``(result, solver)``."""
    solver = GMGSolver(config, **solver_kwargs)
    result = solver.solve()
    oracle = OracleSolver(config, **solver_kwargs)
    expected = oracle.solve()
    assert result.status == expected.status
    assert result.num_vcycles == expected.num_vcycles
    assert result.rollbacks == expected.rollbacks
    assert result.residual_history == expected.residual_history
    np.testing.assert_array_equal(solver.solution(), oracle.solution())
    for got, want in zip(stored_fields(solver), stored_fields(oracle), strict=True):
        np.testing.assert_array_equal(got, want)
    return result, solver
