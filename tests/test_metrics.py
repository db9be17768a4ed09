"""MetricsRegistry semantics: snapshots, name collisions, solve bridge."""

import pytest

from repro.gmg import GMGSolver, SolverConfig
from repro.obs import MetricsRegistry, solve_metrics


class TestCountersAndGauges:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("k", 2)
        reg.counter("k", 3)
        assert reg.get("k") == 5

    def test_counter_rejects_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="only increase"):
            reg.counter("k", -1)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("g", 1.0)
        reg.gauge("g", 7.5)
        assert reg.get("g") == 7.5

    def test_counter_name_cannot_become_gauge(self):
        reg = MetricsRegistry()
        reg.counter("x", 1)
        with pytest.raises(ValueError, match="already a counter"):
            reg.gauge("x", 2.0)
        assert reg.get("x") == 1  # the counter survives the rejection

    def test_gauge_name_cannot_become_counter(self):
        reg = MetricsRegistry()
        reg.gauge("y", 3.0)
        with pytest.raises(ValueError, match="already a gauge"):
            reg.counter("y", 1)
        assert reg.get("y") == 3.0


class TestSnapshot:
    def test_tidy_exports_whole_floats_as_ints(self):
        reg = MetricsRegistry()
        reg.counter("whole", 4.0)
        reg.counter("fractional", 2.5)
        reg.gauge("whole_gauge", 9.0)
        reg.gauge("frac_gauge", 0.125)
        snap = reg.snapshot()
        assert snap["counters"]["whole"] == 4
        assert isinstance(snap["counters"]["whole"], int)
        assert snap["counters"]["fractional"] == 2.5
        assert isinstance(snap["counters"]["fractional"], float)
        assert isinstance(snap["gauges"]["whole_gauge"], int)
        assert isinstance(snap["gauges"]["frac_gauge"], float)

    def test_snapshot_sorted_and_partitioned(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.counter("a")
        reg.gauge("z", 1.0)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        assert list(snap["gauges"]) == ["z"]


class TestSolveMetricsBridge:
    @pytest.fixture(scope="class")
    def multirank_result(self):
        config = SolverConfig(
            global_cells=16, num_levels=2, brick_dim=4, max_smooths=6,
            bottom_smooths=20, max_vcycles=2, rank_dims=(2, 1, 1),
        )
        return GMGSolver(config).solve()

    def test_multirank_recorder_counts_traffic(self, multirank_result):
        snap = solve_metrics(multirank_result.recorder).snapshot()
        counters = snap["counters"]
        assert counters["messages.total"] > 0
        assert counters["messages.bytes"] > 0
        assert counters["exchanges.total"] > 0
        assert counters["kernels.total"] > 0
        # both levels exchanged ghosts
        assert counters["messages.level0.count"] > 0
        assert counters["messages.level1.count"] > 0

    def test_exchange_paths_and_plan_cache_join_snapshot(self):
        from repro.obs import Tracer

        config = SolverConfig(
            global_cells=16, num_levels=2, brick_dim=4, max_smooths=6,
            bottom_smooths=20, max_vcycles=2, rank_dims=(2, 1, 1),
        )
        for tracer in (None, Tracer()):
            solver = GMGSolver(config, tracer=tracer)
            result = solver.solve()
            gauges = solve_metrics(
                result.recorder, exchangers=solver.halo_exchangers()
            ).snapshot()["gauges"]
            exchanges = sum(result.recorder.exchange_counts().values())
            # traced or not, every exchange is the plain plan copy
            assert gauges["exchanges.planned"] == exchanges
            assert gauges["exchanges.envelope"] == 0
            assert (
                gauges["exchanges.level0.planned"]
                + gauges["exchanges.level1.planned"]
            ) == exchanges
            assert not any(g.startswith("exchanges.envelope.") for g in gauges)
            assert gauges["cache.exchange_plan.hits"] >= 1
            assert gauges["cache.exchange_plan.size"] >= 2

    def test_faulted_solve_reports_why_each_exchange_ran_as_it_did(self):
        """Reasons are tallied when chosen, not read back afterwards:
        the one-shot fault is long spent when the report is made."""
        from repro.faults import FaultPlan
        from repro.obs.profile import exchange_path_line

        config = SolverConfig(
            global_cells=16, num_levels=2, brick_dim=4, max_smooths=6,
            bottom_smooths=20, max_vcycles=2, rank_dims=(2, 1, 1),
        )
        solver = GMGSolver(
            config, fault_plan=FaultPlan.single("duplicate", vcycle=1, level=1)
        )
        result = solver.solve()
        gauges = solve_metrics(
            result.recorder, exchangers=solver.halo_exchangers()
        ).snapshot()["gauges"]
        exchanges = sum(result.recorder.exchange_counts().values())
        assert solver.injector.exhausted
        assert gauges["exchanges.envelope.armed_message_fault"] == 1
        # the next exchange finds the duplicate in flight and discards it
        assert gauges["exchanges.envelope.traffic_in_flight"] == 1
        assert gauges["exchanges.envelope"] == 2
        assert gauges["exchanges.planned"] == exchanges - 2
        assert "exchanges.checked" not in gauges
        assert exchange_path_line(solver).startswith(
            f"halo exchange: 2 of {exchanges} exchanges posted per-message "
            f"headers (armed message fault: 1, traffic in flight: 1); "
        )

    def test_faults_that_strike_no_message_leave_no_exchange_line(self):
        """An injector whose faults never strike a message posts no
        header, so the profile has no exchange line to print."""
        from repro.faults import FaultPlan
        from repro.obs.profile import exchange_path_line

        config = SolverConfig(
            global_cells=16, num_levels=2, brick_dim=4, max_smooths=6,
            bottom_smooths=20, max_vcycles=2, rank_dims=(2, 1, 1),
        )
        solver = GMGSolver(config, fault_plan=FaultPlan.single("sdc", vcycle=99))
        solver.solve()
        assert solver.injector is not None
        assert exchange_path_line(solver) is None

    def test_tracer_gauges_join_snapshot(self, multirank_result):
        from repro.obs import Tracer

        tracer = Tracer()
        with tracer.span("solve"):
            pass
        snap = solve_metrics(multirank_result.recorder, tracer).snapshot()
        assert snap["gauges"]["trace.spans"] == 1
        assert snap["gauges"]["trace.wallclock_s"] >= 0
