"""Bottom solvers, cycle types, and mixed precision."""

import numpy as np
import pytest

from repro.gmg import (
    BOTTOM_SOLVERS,
    GMGSolver,
    MixedPrecisionSolver,
    SolverConfig,
    discrete_solution,
    make_bottom_solver,
)
from repro.obs.aggregate import by_paper_op

BASE = dict(global_cells=32, num_levels=3, brick_dim=4,
            max_smooths=8, bottom_smooths=40)
EXACT = discrete_solution((32, 32, 32), 1 / 32)


class TestBottomSolvers:
    def test_registry(self):
        assert set(BOTTOM_SOLVERS) == {"relaxation", "cg", "fft"}
        with pytest.raises(ValueError, match="unknown bottom solver"):
            make_bottom_solver("lu")

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            make_bottom_solver("relaxation", iterations=0)
        with pytest.raises(ValueError):
            make_bottom_solver("cg", max_iterations=0)

    @pytest.mark.parametrize("name", ["cg", "fft"])
    def test_solver_converges_with_each_bottom(self, name):
        solver = GMGSolver(SolverConfig(**BASE, bottom_solver=name))
        result = solver.solve()
        assert result.converged
        assert np.abs(solver.solution() - EXACT).max() < 1e-12

    def test_cg_distributed_matches_serial(self):
        serial = GMGSolver(SolverConfig(**BASE, bottom_solver="cg"))
        serial.solve()
        dist = GMGSolver(SolverConfig(**BASE, bottom_solver="cg",
                                      rank_dims=(2, 1, 1)))
        dist.solve()
        np.testing.assert_allclose(
            serial.solution(), dist.solution(), rtol=0, atol=1e-13
        )

    def test_fft_bottom_is_exact(self):
        """A direct bottom solve should not degrade convergence vs many
        relaxation sweeps."""
        relaxed = GMGSolver(SolverConfig(**BASE)).solve()
        direct = GMGSolver(SolverConfig(**BASE, bottom_solver="fft")).solve()
        assert direct.num_vcycles <= relaxed.num_vcycles + 1

    def test_cg_records_reductions(self):
        solver = GMGSolver(SolverConfig(**BASE, bottom_solver="cg",
                                        max_vcycles=1, tol=0.0))
        result = solver.solve()
        # CG adds dot-product allreduces on top of convergence checks
        assert result.recorder.reductions > len(result.residual_history)

    def test_fft_solves_coarse_system_exactly(self):
        """One FFT bottom call must produce A x = b on the coarse grid."""
        from tests.conftest import reference_apply_op

        solver = GMGSolver(SolverConfig(**BASE, bottom_solver="fft"))
        lev = solver.levels[-1]
        rng = np.random.default_rng(3)
        b = rng.random(lev.shape_cells)
        b -= b.mean()
        lev.b.set_interior(b)
        solver.vcycle.bottom_solver.solve(solver.vcycle, 2)
        c = lev.constants
        Ax = reference_apply_op(lev.x.to_ijk(), c.alpha, c.beta)
        np.testing.assert_allclose(Ax, b, atol=1e-9)


class TestCycleTypes:
    @pytest.mark.parametrize("cycle", ["W", "F"])
    def test_cycles_converge(self, cycle):
        solver = GMGSolver(SolverConfig(**BASE, cycle=cycle))
        result = solver.solve()
        assert result.converged
        assert np.abs(solver.solution() - EXACT).max() < 1e-12

    def test_w_cycle_visits_coarse_levels_more(self):
        v = GMGSolver(SolverConfig(**BASE, max_vcycles=1, tol=0.0))
        w = GMGSolver(SolverConfig(**BASE, cycle="W", max_vcycles=1, tol=0.0))
        v.solve()
        w.solve()
        cv = by_paper_op(v.recorder.kernel_counts())
        cw = by_paper_op(w.recorder.kernel_counts())
        # level-1 work doubles in a 3-level W-cycle; level-0 unchanged
        assert cw[(1, "applyOp")] == 2 * cv[(1, "applyOp")]
        assert cw[(0, "applyOp")] == cv[(0, "applyOp")]

    def test_w_cycle_convergence_factor_at_least_as_good(self):
        v = GMGSolver(SolverConfig(**BASE)).solve()
        w = GMGSolver(SolverConfig(**BASE, cycle="W")).solve()
        assert w.convergence_factor <= v.convergence_factor * 1.05

    def test_invalid_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            SolverConfig(**BASE, cycle="X")


class TestPrecision:
    def test_fp32_fields(self):
        solver = GMGSolver(SolverConfig(**BASE, precision="fp32"))
        assert solver.levels[0].x.dtype == np.float32

    def test_fp32_stalls_above_fp64_tolerance(self):
        solver = GMGSolver(SolverConfig(**BASE, precision="fp32",
                                        max_vcycles=15))
        result = solver.solve()
        assert not result.converged  # cannot reach 1e-10 in fp32
        assert result.final_residual < 1e-3  # but gets to the fp32 floor

    def test_fp32_message_bytes_halve(self):
        r64 = GMGSolver(SolverConfig(**BASE, rank_dims=(2, 1, 1),
                                     max_vcycles=1, tol=0.0))
        r32 = GMGSolver(SolverConfig(**BASE, rank_dims=(2, 1, 1),
                                     max_vcycles=1, tol=0.0,
                                     precision="fp32"))
        r64.solve()
        r32.solve()
        b64 = r64.recorder.message_bytes_by_level()
        b32 = r32.recorder.message_bytes_by_level()
        for lev in b64:
            assert b32[lev] * 2 == b64[lev]

    def test_invalid_precision_rejected(self):
        with pytest.raises(ValueError, match="precision"):
            SolverConfig(**BASE, precision="fp16")


class TestMixedPrecision:
    @pytest.fixture(scope="class")
    def result_and_solver(self):
        solver = MixedPrecisionSolver(SolverConfig(**BASE), inner_vcycles=2)
        return solver.solve(), solver

    def test_reaches_fp64_tolerance(self, result_and_solver):
        result, _ = result_and_solver
        assert result.converged
        assert result.final_residual <= 1e-10

    def test_solution_accuracy(self, result_and_solver):
        _, solver = result_and_solver
        assert np.abs(solver.solution() - EXACT).max() < 1e-11

    def test_outer_history_decreases(self, result_and_solver):
        result, _ = result_and_solver
        h = result.residual_history
        assert all(b < a for a, b in zip(h, h[1:]))

    def test_inner_cycle_accounting(self, result_and_solver):
        result, _ = result_and_solver
        assert result.inner_vcycles_total == 2 * result.outer_iterations

    def test_invalid_inner_vcycles(self):
        with pytest.raises(ValueError):
            MixedPrecisionSolver(SolverConfig(**BASE), inner_vcycles=0)
