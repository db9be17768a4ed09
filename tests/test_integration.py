"""End-to-end integration: the whole stack working together."""

import numpy as np
import pytest

from repro.gmg import (
    GMGSolver,
    SolverConfig,
    continuum_solution,
    discrete_solution,
)
from repro.instrument import Recorder
from repro.obs.aggregate import by_paper_op


class TestEndToEnd:
    def test_paper_configuration_scaled_down(self):
        """The paper's setup (12 smooths, 100 bottom smooths, CA,
        surface-major, multi-rank) at laptop scale, converging to the
        paper's tolerance of 1e-10 and hitting the known solution."""
        cfg = SolverConfig(
            global_cells=32,
            num_levels=3,
            brick_dim=4,
            max_smooths=12,
            bottom_smooths=100,
            rank_dims=(2, 2, 2),
            tol=1e-10,
        )
        solver = GMGSolver(cfg)
        result = solver.solve()
        assert result.converged
        exact = discrete_solution((32, 32, 32), 1 / 32)
        assert np.abs(solver.solution() - exact).max() < 1e-12

    def test_discretization_error_is_second_order(self):
        """Solve at two resolutions; error vs the continuum solution
        must drop ~4x per refinement (2nd-order FV discretisation)."""
        errs = []
        for n in (16, 32):
            cfg = SolverConfig(global_cells=n, num_levels=3, brick_dim=4,
                               max_smooths=8, bottom_smooths=50)
            s = GMGSolver(cfg)
            assert s.solve().converged
            u = continuum_solution((n, n, n), 1.0 / n)
            errs.append(np.abs(s.solution() - u).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)

    def test_convergence_rate_independent_of_resolution(self):
        """Multigrid's hallmark: iteration count barely grows with N."""
        cycles = []
        for n in (16, 32):
            cfg = SolverConfig(global_cells=n, num_levels=3, brick_dim=4,
                               max_smooths=8, bottom_smooths=50)
            cycles.append(GMGSolver(cfg).solve().num_vcycles)
        assert abs(cycles[1] - cycles[0]) <= 2

    def test_recorder_totals_are_consistent(self):
        cfg = SolverConfig(global_cells=16, num_levels=2, brick_dim=4,
                           max_smooths=4, bottom_smooths=10, rank_dims=(2, 1, 1))
        s = GMGSolver(cfg)
        res = s.solve()
        rec: Recorder = res.recorder
        # every exchange phase at level 0 carries 26 messages per rank
        msgs = rec.message_counts_by_level()[0]
        assert msgs == 26 * cfg.num_ranks * rec.exchange_counts()[0]
        # applyOp points = invocations x level-0 size at level 0
        counts = by_paper_op(rec.kernel_counts())
        points = by_paper_op(rec.kernel_points())
        assert points[(0, "applyOp")] == counts[(0, "applyOp")] * 16**3

    def test_instrument_clear(self):
        rec = Recorder()
        rec.kernel(0, "applyOp", 10)
        rec.message(0, 100, "face")
        rec.exchange(0)
        rec.reduction()
        rec.clear()
        assert rec.kernel_counts() == {}
        assert rec.message_bytes_by_level() == {}
        assert rec.exchange_counts() == {}
        assert rec.reductions == 0

    def test_total_stencil_points_filter(self):
        rec = Recorder()
        rec.kernel(0, "applyOp", 10)
        rec.kernel(0, "smooth", 20)
        assert rec.total_stencil_points() == 30
        assert rec.total_stencil_points(ops=("applyOp",)) == 10
