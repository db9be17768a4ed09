"""The analytic timed V-cycle: schedule fidelity and cost structure."""

import dataclasses

import pytest

from repro.gmg import GMGSolver, SolverConfig
from repro.harness.vcycle_sim import TimedSolve, WorkloadConfig, decompose_for
from repro.machines import FRONTIER, PERLMUTTER, SUNSPOT
from repro.machines.network import allreduce_time
from repro.obs.aggregate import by_paper_op
from tests.conftest import exchange_every_sweep


class TestWorkloadConfig:
    def test_defaults_are_the_paper_run(self):
        w = WorkloadConfig()
        assert w.per_rank_cells == (512, 512, 512)
        assert w.num_levels == 6
        assert w.num_ranks == 8
        assert w.global_cells == (1024, 1024, 1024)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            WorkloadConfig(per_rank_cells=(48, 48, 48), num_levels=6)

    def test_positive_counts(self):
        with pytest.raises(ValueError):
            WorkloadConfig(max_smooths=0)

    def test_layout_factor_range(self):
        with pytest.raises(ValueError):
            WorkloadConfig(baseline_layout_factor=0.0)


class TestDecomposeFor:
    def test_cubic(self):
        assert decompose_for((1024, 1024, 1024), 8) == (2, 2, 2)

    def test_non_cubic_global(self):
        dims = decompose_for((2048, 1024, 1024), 16)
        assert dims[0] * dims[1] * dims[2] == 16
        per = tuple(c // d for c, d in zip((2048, 1024, 1024), dims))
        assert all(c % 1 == 0 for c in per)

    def test_factor_of_three(self):
        dims = decompose_for((3072, 1024, 1024), 12)
        assert dims[0] % 3 == 0  # the 3 must land on the 3072 axis

    def test_impossible_raises(self):
        with pytest.raises(ValueError):
            decompose_for((8, 8, 8), 5)  # 5 divides no dimension

    def test_invalid_ranks(self):
        with pytest.raises(ValueError):
            decompose_for((8, 8, 8), 0)


class TestScheduleFidelity:
    """The harness must count exactly what the functional solver does."""

    @pytest.fixture(scope="class")
    def pair(self):
        cfg = SolverConfig(
            global_cells=32, num_levels=3, brick_dim=4, max_smooths=5,
            bottom_smooths=7, tol=0.0, max_vcycles=2, rank_dims=(2, 1, 1),
        )
        solver = GMGSolver(cfg)
        result = solver.solve()
        w = WorkloadConfig(
            per_rank_cells=(16, 32, 32), num_levels=3, max_smooths=5,
            bottom_smooths=7, rank_dims=(2, 1, 1), brick_dim=4,
        )
        ts = TimedSolve(PERLMUTTER, w)
        return solver, result, ts

    def test_kernel_counts_match(self, pair):
        """By points processed per paper operation: the solver records
        one fused kernel call over both rank blocks where the model
        counts a staged pair per rank."""
        solver, result, ts = pair
        expected = ts.schedule_kernel_points(
            result.num_vcycles, len(result.residual_history)
        )
        assert expected == by_paper_op(solver.recorder.kernel_points())
        counts = ts.schedule_kernel_counts(
            result.num_vcycles, len(result.residual_history)
        )
        assert set(counts) == set(expected)

    def test_exchange_counts_match(self, pair):
        solver, result, ts = pair
        expected = ts.schedule_exchange_counts(
            result.num_vcycles, len(result.residual_history)
        )
        assert expected == solver.recorder.exchange_counts()

    def test_message_bytes_match(self, pair):
        solver, result, ts = pair
        expected = ts.schedule_message_bytes(
            result.num_vcycles, len(result.residual_history)
        )
        assert expected == solver.recorder.message_bytes_by_level()

    #: the ladder's fault-free solve workloads, restated
    LADDER_SOLVES = {
        "kernel_1rank_64": dict(global_cells=64, num_levels=4, brick_dim=8),
        "exchange_8rank_32": dict(
            global_cells=32, num_levels=3, brick_dim=4, rank_dims=(2, 2, 2)
        ),
        "default_1rank_32": dict(global_cells=32, num_levels=3, brick_dim=4),
    }

    @pytest.mark.parametrize("name", sorted(LADDER_SOLVES))
    def test_ladder_solves_match_the_priced_schedule(self, name):
        """``repro validate``'s schedule check on each fault-free ladder
        solve: kernel points, exchange phases and message bytes.  One
        periodic rank has no ghost shell, so it is priced no exchange."""
        from repro.gmg.solver import timed_model

        config = SolverConfig(**self.LADDER_SOLVES[name], tol=0.0, max_vcycles=2)
        solver = GMGSolver(config)
        result = solver.solve()
        ts = timed_model(config, PERLMUTTER, result.num_vcycles)
        n, checks = result.num_vcycles, len(result.residual_history)
        recorder = solver.recorder
        assert ts.schedule_kernel_points(n, checks) == by_paper_op(recorder.kernel_points())
        assert ts.schedule_exchange_counts(n, checks) == recorder.exchange_counts()
        assert ts.schedule_message_bytes(n, checks) == recorder.message_bytes_by_level()

    def test_ghostless_rank_prices_no_exchange(self):
        """One periodic rank: no exchange phase, byte or convergence-check
        exchange anywhere in the model — the baseline layout, whose
        one-cell ghosts are always exchanged, still pays them."""
        w = WorkloadConfig(per_rank_cells=(32, 32, 32), num_levels=3, rank_dims=(1, 1, 1))
        ts = TimedSolve(PERLMUTTER, w)
        assert ts.schedule_exchange_counts(2, 3) == {}
        assert ts.schedule_message_bytes(2, 3) == {}
        assert all(lv["exchange"] == 0.0 for lv in ts.vcycle_level_times())
        assert all(lv["exchange"] == 0.0 for lv in ts.solve_level_times())
        assert ts.time_decomposition()["net_overhead"] == 0.0
        assert ts.convergence_check_time() == (
            ts.kernel_seconds("applyOp", 0) + ts.kernel_seconds("residual", 0)
            + allreduce_time(ts.machine, 1, ts.topology.num_nodes)
        )
        base = TimedSolve(PERLMUTTER, dataclasses.replace(w, baseline=True))
        assert base.schedule_exchange_counts(2, 3)[0] > 0

    def test_non_ca_schedule_also_matches(self):
        cfg = SolverConfig(
            global_cells=16, num_levels=2, brick_dim=4, max_smooths=5,
            bottom_smooths=6, tol=0.0, max_vcycles=1, rank_dims=(2, 1, 1),
        )
        with exchange_every_sweep():
            solver = GMGSolver(cfg)
            result = solver.solve()
        w = WorkloadConfig(
            per_rank_cells=(8, 16, 16), num_levels=2, max_smooths=5,
            bottom_smooths=6, rank_dims=(2, 1, 1), brick_dim=4,
            communication_avoiding=False,
        )
        ts = TimedSolve(PERLMUTTER, w)
        assert ts.schedule_exchange_counts(
            result.num_vcycles, len(result.residual_history)
        ) == solver.recorder.exchange_counts()


class TestCostStructure:
    def test_levels_get_cheaper_going_down(self):
        ts = TimedSolve(PERLMUTTER, WorkloadConfig())
        totals = [sum(lv.values()) for lv in ts.vcycle_level_times()]
        # each level is much cheaper than the one above, except the
        # coarsest where the 100-iteration bottom solve bites
        assert all(a > b for a, b in zip(totals[:-2], totals[1:-1]))

    def test_bottom_solver_bump(self):
        """The paper notes the coarsest level costs more than the one
        above it despite having 8x fewer points."""
        ts = TimedSolve(PERLMUTTER, WorkloadConfig())
        totals = [sum(lv.values()) for lv in ts.vcycle_level_times()]
        assert totals[-1] > totals[-2]

    def test_fine_levels_scale_between_4x_and_8x(self):
        """Computation scales 8x per level, surfaces 4x: totals in between."""
        ts = TimedSolve(PERLMUTTER, WorkloadConfig())
        totals = [sum(lv.values()) for lv in ts.vcycle_level_times()]
        ratio = totals[0] / totals[1]
        assert 4.0 <= ratio <= 8.5

    def test_ca_beats_non_ca(self):
        base = TimedSolve(PERLMUTTER, WorkloadConfig()).time_per_vcycle()
        no_ca = TimedSolve(
            PERLMUTTER, WorkloadConfig(communication_avoiding=False)
        ).time_per_vcycle()
        assert no_ca > base * 1.3

    def test_lexicographic_pays_for_packing(self):
        sm = TimedSolve(PERLMUTTER, WorkloadConfig()).time_per_vcycle()
        lex = TimedSolve(
            PERLMUTTER, WorkloadConfig(ordering="lexicographic")
        ).time_per_vcycle()
        assert lex > sm

    def test_gpu_aware_override(self):
        base = TimedSolve(PERLMUTTER, WorkloadConfig()).time_per_vcycle()
        staged = TimedSolve(
            PERLMUTTER, WorkloadConfig(gpu_aware=False)
        ).time_per_vcycle()
        assert staged > base

    def test_baseline_slower_than_bricks(self):
        for machine in (PERLMUTTER, FRONTIER, SUNSPOT):
            brick = TimedSolve(machine, WorkloadConfig()).time_per_vcycle()
            base = TimedSolve(
                machine, WorkloadConfig(baseline=True)
            ).time_per_vcycle()
            assert base > brick

    def test_fractions_sum_to_one(self):
        fr = TimedSolve(PERLMUTTER, WorkloadConfig()).op_fractions_finest()
        assert sum(fr.values()) == pytest.approx(1.0)

    def test_exchange_bytes_scale_4x_between_levels(self):
        """Surface data shrinks ~4x per level (for large levels)."""
        ts = TimedSolve(PERLMUTTER, WorkloadConfig())
        b0 = ts.exchange_total_bytes(0)
        b1 = ts.exchange_total_bytes(1)
        assert b0 / b1 == pytest.approx(4.0, rel=0.15)

    def test_gstencil_metric(self):
        ts = TimedSolve(PERLMUTTER, WorkloadConfig())
        expected = 1024**3 / ts.total_solve_time() / 1e9
        assert ts.gstencil_per_second() == pytest.approx(expected)

    def test_solve_time_includes_convergence_checks(self):
        ts = TimedSolve(PERLMUTTER, WorkloadConfig())
        assert ts.total_solve_time() > 12 * ts.time_per_vcycle()

    @pytest.mark.parametrize("machine", [PERLMUTTER, FRONTIER, SUNSPOT],
                             ids=lambda m: m.name)
    def test_fp32_vcycle_speedup_is_bandwidth_bound(self, machine):
        """Half the bytes approach 2x, eroded by launch/comm latency."""
        t64 = TimedSolve(machine, WorkloadConfig()).time_per_vcycle()
        t32 = TimedSolve(
            machine, WorkloadConfig(precision="fp32")
        ).time_per_vcycle()
        assert 1.5 <= t64 / t32 <= 2.0


class TestTimeDecomposition:
    def test_buckets_sum_close_to_vcycle_time(self):
        from repro.machines import PERLMUTTER

        ts = TimedSolve(PERLMUTTER, WorkloadConfig())
        d = ts.time_decomposition()
        total = sum(d.values())
        # decomposition covers one V-cycle + one convergence check's
        # exchange/kernels; compare against the same quantity
        per_cycle = ts.time_per_vcycle() + ts.convergence_check_time()
        assert total == pytest.approx(per_cycle, rel=0.15)

    def test_streaming_dominates_at_paper_scale(self):
        from repro.machines import PERLMUTTER

        ts = TimedSolve(PERLMUTTER, WorkloadConfig())
        assert ts.latency_fraction() < 0.10

    def test_latency_fraction_grows_under_strong_scaling(self):
        from repro.harness.experiments import strong_scaling_breakdown

        bd = strong_scaling_breakdown("Perlmutter")
        f = bd.latency_fractions
        assert all(a < b for a, b in zip(f, f[1:]))
        assert f[0] < 0.05
        assert f[-1] > 0.3

    def test_kernel_launch_constant_under_strong_scaling(self):
        """Launch latency per cycle is schedule-fixed; only the
        streaming terms shrink with the per-rank problem."""
        from repro.harness.experiments import strong_scaling_breakdown

        bd = strong_scaling_breakdown("Frontier")
        launches = [d["kernel_launch"] for d in bd.decompositions]
        assert max(launches) == pytest.approx(min(launches), rel=1e-6)
        streams = [d["kernel_stream"] for d in bd.decompositions]
        assert all(a > b for a, b in zip(streams, streams[1:]))

    @pytest.mark.parametrize("machine", ["Frontier", "Sunspot"])
    def test_latency_fraction_grows_on_every_machine(self, machine):
        """Sunspot's ladder stops at 16 nodes, so its top fraction is
        lower."""
        from repro.harness.experiments import strong_scaling_breakdown

        f = strong_scaling_breakdown(machine).latency_fractions
        assert all(a < b for a, b in zip(f, f[1:]))
        assert f[0] < 0.10
        assert f[-1] > (0.20 if machine == "Sunspot" else 0.30)

    def test_exchange_overhead_is_about_ten_launches(self):
        """Section IX: MPI per-message overhead is close to 10x the
        kernel launch overhead (which motivates deep ghost zones); every
        machine pays at least a full launch per 26-message exchange."""
        from repro.machines import MACHINES
        from repro.machines.network import message_overhead

        ratio = {
            name: 26 * message_overhead(m, 4096) / m.gpu.kernel_launch_latency_s
            for name, m in MACHINES.items()
        }
        assert ratio["Perlmutter"] == pytest.approx(10.0, rel=0.3)
        assert all(v >= 1.0 for v in ratio.values())
