"""Public solver API: configuration, convergence, distribution."""

import dataclasses

import numpy as np
import pytest

from repro.gmg import GMGSolver, SolverConfig, discrete_solution
from repro.gmg.level import Level
from repro.obs.aggregate import by_paper_op


class TestConfigValidation:
    def test_defaults_are_valid(self):
        SolverConfig()

    def test_too_small_domain(self):
        with pytest.raises(ValueError):
            SolverConfig(global_cells=1)

    def test_rank_dims_must_divide(self):
        with pytest.raises(ValueError, match="does not divide"):
            SolverConfig(global_cells=32, rank_dims=(3, 1, 1))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("rank_dims", (0, 1, 1)),
            ("rank_dims", (2, 2)),
            ("brick_dim", 0),
            ("max_smooths", 0),
            ("bottom_smooths", 0),
            ("tol", float("nan")),
            ("tol", -1e-10),
            ("max_vcycles", -1),
        ],
    )
    def test_bad_values_are_rejected_by_name_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})

    def test_storage_ordering_is_not_a_solver_field(self):
        """The solver always stores surface-major (its residual check
        reads the interior as each block's slot tail); the ordering
        stays a ``BrickGrid`` argument only."""
        assert "ordering" not in {f.name for f in dataclasses.fields(SolverConfig)}
        with pytest.raises(TypeError, match="ordering"):
            SolverConfig(ordering="lexicographic")
        solver = GMGSolver(SolverConfig(global_cells=16, num_levels=2,
                                        rank_dims=(2, 1, 1)))
        assert {d.level.grid.ordering for d in solver.depths} == {"surface-major"}

    def test_zero_tol_and_zero_cycles_are_legal(self):
        config = SolverConfig(global_cells=8, num_levels=2, brick_dim=2,
                              tol=0.0, max_vcycles=0)
        assert GMGSolver(config).solve().num_vcycles == 0

    def test_there_is_no_execution_option(self):
        """How a solve executes is not configurable: 17 fields, none
        of them a schedule, and every solver stacks its ranks in one
        level per depth."""
        names = [f.name for f in dataclasses.fields(SolverConfig)]
        assert len(names) == 17
        assert "overlap" not in names and "communication_avoiding" not in names
        solver = GMGSolver(SolverConfig(global_cells=16, num_levels=2))
        assert [d.level.num_blocks for d in solver.vcycle.depths] == [1, 1]
        eight = GMGSolver(SolverConfig(global_cells=16, num_levels=2, rank_dims=(2, 2, 2)))
        assert [d.level.grid.num_ranks for d in eight.vcycle.depths] == [8, 8]

    def test_levels_must_fit(self):
        with pytest.raises(ValueError):
            SolverConfig(global_cells=8, num_levels=5)

    def test_level_spacing(self):
        cfg = SolverConfig(global_cells=32, num_levels=3)
        assert cfg.level_spacing(0) == pytest.approx(1 / 32)
        assert cfg.level_spacing(2) == pytest.approx(4 / 32)

    def test_derived_properties(self):
        cfg = SolverConfig(global_cells=32, rank_dims=(2, 2, 1))
        assert cfg.num_ranks == 4
        assert cfg.cells_per_rank == (16, 16, 32)


class TestSerialSolve:
    @pytest.fixture(scope="class")
    def result_and_solver(self):
        solver = GMGSolver(
            SolverConfig(global_cells=32, num_levels=3, brick_dim=4)
        )
        return solver.solve(), solver

    def test_converges(self, result_and_solver):
        result, _ = result_and_solver
        assert result.converged
        assert result.final_residual <= 1e-10

    def test_solution_matches_discrete_exact(self, result_and_solver):
        """The solver must land on the closed-form discrete solution."""
        result, solver = result_and_solver
        exact = discrete_solution((32, 32, 32), 1 / 32)
        assert np.abs(solver.solution() - exact).max() < 1e-12

    def test_convergence_factor_is_multigrid_like(self, result_and_solver):
        """GMG reduces the residual by a healthy factor per cycle."""
        result, _ = result_and_solver
        assert result.convergence_factor < 0.15

    def test_residual_dense_matches_history(self, result_and_solver):
        result, solver = result_and_solver
        assert np.abs(solver.residual_dense()).max() == pytest.approx(
            result.final_residual
        )

    def test_recorder_saw_work(self, result_and_solver):
        result, _ = result_and_solver
        counts = by_paper_op(result.recorder.kernel_counts())
        assert counts[(0, "applyOp")] > 0
        assert counts[(2, "smooth")] > 0  # bottom solver
        assert result.recorder.reductions == len(result.residual_history)


class _ShelledLevel(Level):
    """A level that keeps its one-brick shell whatever the solver
    decided: the pre-ghostless layout of a one-rank periodic solve."""

    def __init__(self, *args, ghost_bricks=1, **kwargs):
        super().__init__(*args, ghost_bricks=1, **kwargs)


class _ShelledSolver(GMGSolver):
    level_type = _ShelledLevel


class TestDistributedEquivalence:
    @pytest.fixture(scope="class")
    def serial_solution(self):
        solver = GMGSolver(
            SolverConfig(global_cells=16, num_levels=2, brick_dim=4,
                         max_smooths=6, bottom_smooths=20)
        )
        solver.solve()
        return solver.solution()

    @pytest.mark.parametrize("dims", [(2, 1, 1), (1, 2, 1), (2, 2, 1), (2, 2, 2)])
    def test_multi_rank_matches_serial_bitwise(self, serial_solution, dims):
        solver = GMGSolver(
            SolverConfig(global_cells=16, num_levels=2, brick_dim=4,
                         max_smooths=6, bottom_smooths=20, rank_dims=dims)
        )
        solver.solve()
        np.testing.assert_array_equal(solver.solution(), serial_solution)

    def test_comm_is_drained_after_solve(self):
        solver = GMGSolver(
            SolverConfig(global_cells=16, num_levels=2, brick_dim=4,
                         max_smooths=4, bottom_smooths=8, rank_dims=(2, 1, 1))
        )
        solver.solve()  # raises internally if messages leak

    #: one periodic rank has no ghost shell (its bricks wrap their own
    #: adjacency); two ranks keep the shell and exchange it.  Neither
    #: shares the other's grids, windows or exchanges, so each axis of
    #: the algorithm is checked against a hierarchy built the other way.
    GHOSTLESS_VS_SHELLED = {
        "jacobi": {},
        "gsrb": dict(smoother="gsrb"),
        "sor": dict(smoother="sor"),
        "chebyshev": dict(smoother="chebyshev"),
        "W": dict(cycle="W"),
        "F": dict(cycle="F"),
        "fp32": dict(precision="fp32", tol=1e-4, max_vcycles=6),
        "cg-bottom": dict(bottom_solver="cg"),
        "fft-bottom": dict(bottom_solver="fft"),
        "B2-3-levels": dict(brick_dim=2),
    }

    @pytest.mark.parametrize("case", sorted(GHOSTLESS_VS_SHELLED))
    def test_ghostless_rank_matches_shelled_ranks_bitwise(self, case):
        base = dict(global_cells=16, num_levels=3, brick_dim=4,
                    max_smooths=6, bottom_smooths=20)
        base.update(self.GHOSTLESS_VS_SHELLED[case])
        one = GMGSolver(SolverConfig(**base))
        if case == "cg-bottom":
            # CG reduces its dot products rank by rank, so a split
            # domain sums in another order: the shelled reference is
            # one rank forced to keep its shell (26 self-messages)
            two = _ShelledSolver(SolverConfig(**base))
        else:
            two = GMGSolver(SolverConfig(**base, rank_dims=(2, 1, 1)))
        assert all(
            d.level.grid.ghost_bricks == 0
            and d.level.grid.num_slots == d.level.grid.num_interior
            for d in one.depths
        )
        assert all(d.level.grid.ghost_bricks == 1 for d in two.depths)
        a, b = one.solve(), two.solve()
        assert a.recorder.exchange_counts() == {}
        assert sum(b.recorder.exchange_counts().values()) > 0
        assert np.asarray(a.residual_history).tobytes() == np.asarray(
            b.residual_history
        ).tobytes()
        assert one.solution().tobytes() == two.solution().tobytes()


class TestOneLevelPerDepth:
    """Each depth is one level: one base grid and one allocation per
    field, which every rank's block view shares."""

    @staticmethod
    def counting_grids(monkeypatch):
        from repro.bricks.brick_grid import BrickGrid

        built = []

        def counted(self, *args, _init=BrickGrid.__init__, **kwargs):
            built.append(self)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(BrickGrid, "__init__", counted)
        return built

    def test_block_views_share_the_depth_s_grid_and_storage(self, monkeypatch):
        built = self.counting_grids(monkeypatch)
        solver = GMGSolver(
            SolverConfig(global_cells=32, num_levels=3, brick_dim=4, rank_dims=(2, 2, 2))
        )
        assert len(built) == 3  # not one per rank and depth (24)
        for level, grid in zip((d.level for d in solver.depths), built):
            assert level.grid.base is grid
            views = level.blocks()
            assert len(views) == 8 and level.blocks() is views
            S = grid.num_slots
            for k, view in enumerate(views):
                assert view.grid is grid and view.num_points * 8 == level.num_points
                for name, field in level.fields().items():
                    data = view.fields()[name].data
                    assert np.shares_memory(data, field.data)
                    assert data.__array_interface__["data"][0] == (
                        field.data[k * S :].__array_interface__["data"][0]
                    )

    def test_cohort_builds_one_grid_per_depth(self, monkeypatch):
        from repro.service import CohortSolver

        built = self.counting_grids(monkeypatch)
        config = SolverConfig(global_cells=8, num_levels=2, brick_dim=2,
                              max_smooths=2, bottom_smooths=8)
        cohort = CohortSolver(config, capacity=8)
        assert len(built) == config.num_levels
        assert [d.level.num_blocks for d in cohort.hierarchy.depths] == [8, 8]


class TestBrickSizeIndependence:
    def test_brick_dim_does_not_change_numerics(self):
        sols = []
        for b in (2, 4, 8):
            s = GMGSolver(
                SolverConfig(global_cells=16, num_levels=2, brick_dim=b,
                             max_smooths=4, bottom_smooths=10)
            )
            s.solve()
            sols.append(s.solution())
        np.testing.assert_array_equal(sols[0], sols[1])
        np.testing.assert_array_equal(sols[1], sols[2])

    def test_brick_dim_shrinks_on_coarse_levels(self):
        s = GMGSolver(SolverConfig(global_cells=16, num_levels=3, brick_dim=8))
        dims = [d.level.grid.brick_dim for d in s.depths]
        assert dims == [8, 8, 4]


class TestSolveResult:
    def test_zero_cycle_convergence_factor(self):
        from repro.gmg.solver import SolveResult
        from repro.instrument import Recorder

        r = SolveResult(True, 0, [0.0], Recorder())
        assert r.convergence_factor == 1.0

    def test_plain_solve_reports_status(self):
        result = GMGSolver(
            SolverConfig(global_cells=16, num_levels=2, brick_dim=4,
                         max_smooths=6, bottom_smooths=20)
        ).solve()
        assert result.status == "converged"
        assert result.executed_vcycles == result.num_vcycles
        assert result.rollbacks == 0
        assert result.fault_counts == {}

    def test_max_vcycles_status(self):
        result = GMGSolver(
            SolverConfig(global_cells=16, num_levels=2, brick_dim=4,
                         max_smooths=2, bottom_smooths=4, max_vcycles=1)
        ).solve()
        assert not result.converged
        assert result.status == "max_vcycles"
        assert result.num_vcycles == 1


class TestEstimateSolveTime:
    def test_bridges_functional_config_to_machine_model(self):
        from repro.gmg.solver import estimate_solve_time
        from repro.machines import PERLMUTTER

        cfg = SolverConfig(global_cells=512 * 2, num_levels=6, brick_dim=8,
                           rank_dims=(2, 2, 2))
        t = estimate_solve_time(cfg, PERLMUTTER, num_vcycles=12)
        # the paper-scale run: a few seconds on the A100 model
        assert 1.0 < t < 10.0

    def test_actual_cycles_feed_the_estimate(self):
        from repro.gmg.solver import estimate_solve_time
        from repro.machines import PERLMUTTER

        cfg = SolverConfig(global_cells=32, num_levels=3, brick_dim=4,
                           max_smooths=8, bottom_smooths=40)
        result = GMGSolver(cfg).solve()
        t = estimate_solve_time(cfg, PERLMUTTER, result.num_vcycles)
        assert t > 0

    def test_non_periodic_rejected(self):
        from repro.gmg.solver import estimate_solve_time
        from repro.machines import PERLMUTTER

        cfg = SolverConfig(global_cells=32, num_levels=3, brick_dim=4,
                           boundary="dirichlet")
        with pytest.raises(ValueError, match="periodic"):
            estimate_solve_time(cfg, PERLMUTTER, 10)
