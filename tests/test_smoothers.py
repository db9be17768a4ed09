"""Alternative smoothers: correctness and CA bookkeeping."""

import numpy as np
import pytest

from repro.gmg import (
    ChebyshevSmoother,
    GMGSolver,
    JacobiSmoother,
    RedBlackGaussSeidelSmoother,
    SMOOTHERS,
    SolverConfig,
    SORSmoother,
    discrete_solution,
    make_smoother,
)
from repro.gmg.level import Level
from repro.gmg.problem import rhs_field

BASE = dict(global_cells=32, num_levels=3, brick_dim=4,
            max_smooths=8, bottom_smooths=40)


def residual_norm(level: Level) -> float:
    from tests.conftest import reference_apply_op

    c = level.constants
    x, b = level.x.to_ijk(), level.b.to_ijk()
    return float(np.abs(b - reference_apply_op(x, c.alpha, c.beta)).max())


@pytest.fixture
def level(rng):
    lv = Level(0, (16, 16, 16), 4, h=1 / 16)
    lv.b.set_interior(rhs_field((16, 16, 16), 1 / 16))
    lv.x.set_interior(rng.random((16, 16, 16)) * 0.01)
    for f in lv.fields().values():
        f.fill_ghost_periodic()
    return lv


class TestRegistry:
    def test_all_registered(self):
        assert set(SMOOTHERS) == {"jacobi", "gsrb", "sor", "chebyshev"}

    def test_make_smoother(self):
        assert isinstance(make_smoother("gsrb"), RedBlackGaussSeidelSmoother)
        with pytest.raises(ValueError, match="unknown smoother"):
            make_smoother("ilu")

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            JacobiSmoother(omega=0.0)
        with pytest.raises(ValueError):
            SORSmoother(omega=2.0)
        with pytest.raises(ValueError):
            ChebyshevSmoother(degree=0)
        with pytest.raises(ValueError):
            ChebyshevSmoother(alpha_ratio=0.5)

    def test_ghost_consumption_declarations(self):
        assert JacobiSmoother().ghost_cells_per_iteration == 1
        assert RedBlackGaussSeidelSmoother().ghost_cells_per_iteration == 2
        assert SORSmoother().ghost_cells_per_iteration == 2
        assert ChebyshevSmoother(degree=3).ghost_cells_per_iteration == 3


class TestSingleLevelBehaviour:
    @pytest.mark.parametrize("name", ["jacobi", "gsrb", "sor", "chebyshev"])
    def test_each_smoother_reduces_residual(self, level, name, rng):
        sm = make_smoother(name)
        r0 = residual_norm(level)
        for _ in range(4):
            for f in level.fields().values():
                f.fill_ghost_periodic()
            sm.iterate(level, with_residual=False, recorder=None)
        assert residual_norm(level) < 0.7 * r0

    def test_gsrb_converges_faster_than_jacobi(self, rng):
        results = {}
        for name in ("jacobi", "gsrb"):
            lv = Level(0, (16, 16, 16), 4, h=1 / 16)
            lv.b.set_interior(rhs_field((16, 16, 16), 1 / 16))
            for f in lv.fields().values():
                f.fill_ghost_periodic()
            sm = make_smoother(name)
            for _ in range(10):
                for f in lv.fields().values():
                    f.fill_ghost_periodic()
                sm.iterate(lv, with_residual=False, recorder=None)
            results[name] = residual_norm(lv)
        assert results["gsrb"] < results["jacobi"]

    def test_residual_convention_is_preupdate(self, level):
        """with_residual writes r = b - A x_pre for every smoother."""
        from tests.conftest import reference_apply_op

        for name in ("jacobi", "gsrb", "chebyshev"):
            lv = Level(0, (16, 16, 16), 4, h=1 / 16)
            lv.b.set_interior(level.b.to_ijk())
            lv.x.set_interior(level.x.to_ijk())
            for f in lv.fields().values():
                f.fill_ghost_periodic()
            c = lv.constants
            expected = lv.b.to_ijk() - reference_apply_op(
                lv.x.to_ijk(), c.alpha, c.beta
            )
            make_smoother(name).iterate(lv, with_residual=True, recorder=None)
            np.testing.assert_allclose(lv.r.to_ijk(), expected, atol=1e-12)

    def test_jacobi_omega_half_matches_paper_gamma(self, level):
        """omega=0.5 must be bit-identical to the level's h^2/12 path."""
        sm = JacobiSmoother(omega=0.5)
        assert sm._constants(level)["gamma"] == level.constants.gamma


class TestFullSolves:
    @pytest.mark.parametrize("name", ["gsrb", "sor", "chebyshev"])
    def test_solver_converges_with_each_smoother(self, name):
        solver = GMGSolver(SolverConfig(**BASE, smoother=name))
        result = solver.solve()
        assert result.converged
        exact = discrete_solution((32, 32, 32), 1 / 32)
        assert np.abs(solver.solution() - exact).max() < 1e-12

    def test_gsrb_distributed_matches_serial(self):
        serial = GMGSolver(SolverConfig(**BASE, smoother="gsrb"))
        serial.solve()
        dist = GMGSolver(SolverConfig(**BASE, smoother="gsrb",
                                      rank_dims=(2, 1, 1)))
        dist.solve()
        np.testing.assert_array_equal(serial.solution(), dist.solution())

    def test_gsrb_better_convergence_factor(self):
        jac = GMGSolver(SolverConfig(**BASE)).solve()
        gs = GMGSolver(SolverConfig(**BASE, smoother="gsrb")).solve()
        assert gs.convergence_factor < jac.convergence_factor

    def test_colored_smoother_doubles_exchanges(self):
        """GSRB consumes 2 halo cells/iteration, halving the CA budget."""
        jac = GMGSolver(SolverConfig(**BASE, rank_dims=(2, 1, 1)))
        gs = GMGSolver(SolverConfig(**BASE, smoother="gsrb", rank_dims=(2, 1, 1)))
        assert gs.vcycle.iterations_per_exchange(0) == (
            jac.vcycle.iterations_per_exchange(0) // 2
        )
        assert gs.vcycle.exchanges_per_visit(0) > jac.vcycle.exchanges_per_visit(0)

    def test_chebyshev_degree_exceeding_ghost_rejected(self):
        with pytest.raises(ValueError, match="level 0's ghost zone is only 4 cells"):
            GMGSolver(SolverConfig(
                **BASE, smoother="chebyshev",
                smoother_options=(("degree", 5),), rank_dims=(2, 1, 1),
            ))

    def test_one_periodic_rank_accepts_any_chebyshev_degree(self):
        """No ghost shell, no halo budget: a degree-5 iteration (five
        halo cells, more than a 4-cell shell grants) runs on one
        periodic rank and converges."""
        solver = GMGSolver(SolverConfig(
            **BASE, smoother="chebyshev", smoother_options=(("degree", 5),),
        ))
        assert solver.vcycle.iterations_per_exchange(0) is None
        assert solver.solve().converged

    def test_unknown_smoother_rejected_in_config(self):
        with pytest.raises(ValueError, match="unknown smoother"):
            SolverConfig(**BASE, smoother="ilu")


class TestColorMaskCache:
    """The chequerboard masks are cached per *grid object*, weakly.

    Regression: an ``id()``-keyed cache can alias a recycled id onto a
    new, differently-shaped grid once the original is garbage-collected,
    serving masks of the wrong shape; a ``WeakKeyDictionary`` keyed by
    the grid itself cannot, and also drops entries with dead grids.
    """

    def test_masks_cached_per_grid(self, level):
        sm = RedBlackGaussSeidelSmoother()
        red1, black1 = sm._color_masks(level)
        red2, black2 = sm._color_masks(level)
        assert red1 is red2 and black1 is black2
        assert red1.shape == level.x.data.shape
        np.testing.assert_array_equal(red1, ~black1)

    def test_new_grid_never_sees_stale_masks(self, rng):
        """Churn through many short-lived levels of different shapes:
        every one must get masks of its own shape, even when ids are
        recycled by the allocator."""
        import gc

        sm = RedBlackGaussSeidelSmoother()
        for n in (8, 16, 8, 12, 8, 16):
            lv = Level(0, (n, n, n), 4, h=1 / n)
            red, _ = sm._color_masks(lv)
            assert red.shape == lv.x.data.shape, n
            del lv
            gc.collect()

    def test_cache_does_not_pin_dead_grids(self):
        import gc

        sm = RedBlackGaussSeidelSmoother()
        lv = Level(0, (8, 8, 8), 4, h=1 / 8)
        sm._color_masks(lv)
        assert len(sm._masks) == 1
        del lv
        gc.collect()
        assert len(sm._masks) == 0
