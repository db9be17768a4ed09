"""Traced solves end-to-end: aggregation, coverage, faults, the report."""

import json
import math

import pytest

from repro.dsl import native
from repro.faults import FaultPlan, FaultSpec
from repro.gmg import GMGSolver, SolverConfig
from repro.machines import MACHINES
from repro.obs import (
    Tracer,
    aggregate_by_level_op,
    measured_vs_model_rows,
    profile_solve,
    render_measured_vs_model,
    span_coverage,
)
from repro.obs.aggregate import STRUCTURE_SPANS, op_spans


def _config(**overrides) -> SolverConfig:
    base = dict(global_cells=16, num_levels=2, brick_dim=4,
                max_smooths=6, bottom_smooths=20)
    base.update(overrides)
    return SolverConfig(**base)


@pytest.fixture(scope="module")
def profiled():
    """One traced 2-level solve shared by the assertions below."""
    return profile_solve(_config(), machine_name="Perlmutter")


@pytest.fixture(scope="module")
def profiled_exchanging():
    """The same solve over two ranks: one periodic rank has no ghost
    shell and so no exchange to time."""
    return profile_solve(_config(rank_dims=(2, 1, 1)), machine_name="Perlmutter")


class TestTracedSolve:
    def test_solve_root_covers_everything(self, profiled):
        """One root: the solve, which covers everything (construction
        records no span — a hierarchy is built stacked)."""
        tracer = profiled.tracer
        (root,) = tracer.roots()
        assert root.name == "solve"
        assert tracer.open_depth == 0
        for s in tracer.spans:
            assert root.start <= s.start and s.end <= root.end

    def test_span_coverage_meets_acceptance_bar(self, profiled):
        assert profiled.coverage == span_coverage(profiled.tracer)
        assert profiled.coverage >= 0.95

    def test_both_levels_visited(self, profiled):
        levels = {s.attrs["l"] for s in op_spans(profiled.tracer)}
        assert levels == {0, 1}

    def test_op_totals_fit_inside_the_solve(self, profiled):
        (root,) = profiled.tracer.find("solve")
        per_level = {}
        for s in op_spans(profiled.tracer):
            per_level.setdefault(s.attrs["l"], 0.0)
            per_level[s.attrs["l"]] += s.duration
        # op spans never nest within one another, so their sum is a
        # lower bound on the wall-clock they sit inside
        assert sum(per_level.values()) <= root.duration * 1.001


class TestAggregation:
    def test_structure_spans_excluded(self, profiled):
        ops = {op for (_, op) in aggregate_by_level_op(profiled.tracer)}
        assert ops and not (ops & STRUCTURE_SPANS)

    def test_stats_are_consistent(self, profiled):
        for stat in aggregate_by_level_op(profiled.tracer).values():
            assert 0.0 <= stat.min <= stat.avg <= stat.max
            assert stat.count >= 1
            assert math.isfinite(stat.stdev)


class TestMeasuredVsModel:
    def test_rows_cover_both_levels_with_model_column(self, profiled):
        rows = profiled.rows
        assert {r["level"] for r in rows} == {0, 1}
        smooth_rows = [r for r in rows if "smooth" in r["op"]]
        assert smooth_rows
        # the model prices the smoothing pipeline on every level
        assert all(r["model_s"] is not None and r["model_s"] > 0
                   for r in smooth_rows)

    @pytest.mark.parametrize("recorded", [True, False])
    def test_model_ops_are_split_not_counted_twice(self, profiled_exchanging, recorded):
        """Every fused row covers ``applyOp``: each model operation's
        level total is shared out across the rows covering it, by their
        points (applications without a recorder), so a level's rows sum
        to the model's totals of the operations they cover, once."""
        from repro.obs.aggregate import MODEL_OP_FOR, model_level_times

        p = profiled_exchanging
        rows = measured_vs_model_rows(
            p.tracer, p.config, MACHINES["Perlmutter"], p.result.num_vcycles,
            recorder=p.result.recorder if recorded else None,
        )
        model = model_level_times(p.config, MACHINES["Perlmutter"], p.result.num_vcycles)
        for lev in (0, 1):
            mine = [r for r in rows if r["level"] == lev and r["op"] in MODEL_OP_FOR]
            covered = {k for r in mine for k in MODEL_OP_FOR[r["op"]]}
            want = sum(model[lev].get(k, 0.0) for k in covered)
            assert sum(r["model_s"] for r in mine) == pytest.approx(want, rel=1e-12)
        # the check's fused call shares l0 applyOp with the smoother's
        l0 = {r["op"]: r for r in rows if r["level"] == 0}
        assert 0 < l0["applyOp>residual"]["model_s"] < model[0]["applyOp"]

    def test_render_matches_artifact_row_format(self, profiled):
        text = render_measured_vs_model(profiled.rows, "Perlmutter")
        assert "(model: Perlmutter)" in text
        assert "sigma:" in text and "| model " in text
        assert "level 0 " in text and "level 1 " in text
        text.encode("ascii")

    def test_kernel_rows_carry_achieved_bandwidth(self, profiled_exchanging):
        """Stencil rows report compulsory GB/s at the run's precision —
        the convergence check's fused ``applyOp>residual`` among them;
        non-stencil rows (exchange, inter-grid) do not."""
        from repro.obs.aggregate import kernel_bytes_per_point

        rows = profiled_exchanging.rows
        by_op = {r["op"]: r for r in rows if r["level"] == 0}
        assert by_op["applyOp>residual"]["gbps"] > 0
        assert by_op["exchange"]["gbps"] is None
        assert "GB/s compulsory" in render_measured_vs_model(rows)
        fp64, fp32 = kernel_bytes_per_point(8), kernel_bytes_per_point(4)
        assert fp64["smooth+residual"] == 40
        assert all(fp32[op] * 2 == fp64[op] for op in fp64)

    def test_model_column_optional(self, profiled):
        rows = measured_vs_model_rows(
            profiled.tracer, profiled.config, None,
            profiled.result.num_vcycles)
        assert all(r["model_s"] is None for r in rows)
        assert "| model" not in render_measured_vs_model(rows)


class TestProfileReport:
    def test_render_sections(self, profiled):
        text = profiled.render()
        assert "profiled solve: 16^3" in text
        assert "coverage" in text
        assert "metrics snapshot:" in text
        assert "kernels.total" in text
        # which backend ran the kernels, next to the exchange-path line
        assert f"  {profiled.kernels}\n" in text
        assert profiled.kernels.startswith(("kernels: native C (", "kernels: NumPy ("))
        gauges = profiled.metrics["gauges"]
        assert {"cache.native_kernel.hits", "cache.native_kernel.misses",
                "cache.native_kernel.compile_ms"} <= set(gauges)

    def test_profile_wait_fraction(self, profiled_exchanging):
        """Share of V-cycle time inside ``exchange`` spans."""
        report = profiled_exchanging
        assert 0.0 < report.wait_fraction < 1.0
        assert report.wait_s > 0.0
        assert "wait fraction" in report.render()
        assert "no ghost exchange" not in report.render()
        assert report.to_json()["wait_fraction"] == report.wait_fraction

    def test_one_periodic_rank_says_it_has_no_ghost_exchange(self, profiled):
        text = profiled.render()
        assert "  no ghost exchange (one periodic rank has no ghost shell)\n" in text
        assert "wait fraction" not in text
        assert profiled.wait_s == profiled.wait_fraction == 0.0
        assert not profiled.tracer.find("exchange")
        counters = profiled.metrics["counters"]
        assert counters["exchanges.total"] == counters["messages.total"] == 0

    def test_reductions_bridged_from_recorder(self, profiled):
        counters = profiled.metrics["counters"]
        assert counters["reductions.total"] == \
            profiled.result.recorder.reductions
        assert counters["reductions.total"] > 0

    def test_kernel_counter_matches_recorder(self, profiled):
        counters = profiled.metrics["counters"]
        recorder = profiled.result.recorder
        assert counters["kernels.total"] == len(recorder.kernels)
        assert counters["exchanges.total"] == \
            sum(recorder.exchange_counts().values())

    def test_json_form_serialises(self, profiled):
        obj = json.loads(json.dumps(profiled.to_json()))
        assert obj["coverage"] == pytest.approx(profiled.coverage)
        assert obj["machine"] == "Perlmutter"
        row = obj["rows"][0]
        assert {"level", "op", "min", "avg", "max", "sigma",
                "count", "measured_total_s", "model_s"} <= set(row)

    def test_trace_file_written_and_valid(self, tmp_path):
        from repro.obs import validate_chrome_trace_file

        path = tmp_path / "trace.json"
        report = profile_solve(_config(), machine_name=None,
                               trace_path=path)
        counts = validate_chrome_trace_file(path)
        tracer = report.tracer
        # the root timeline plus any rank's own
        assert counts["spans"] == len(tracer.spans) + sum(
            len(child.spans) for child in tracer.children.values()
        )
        assert report.machine_name is None

    def test_nonperiodic_skips_model(self):
        report = profile_solve(_config(boundary="dirichlet"),
                               machine_name="Perlmutter")
        assert report.machine_name is None
        assert all(r["model_s"] is None for r in report.rows)

    def test_traced_solve_compiles_and_loads_nothing(self, monkeypatch, tmp_path):
        """An untraced warm-up solve makes the process's first native
        call — the compiler probe, every compile and load — so no span
        of the traced solve times it; the kernel line counts the traced
        solve's calls alone."""
        backend = native.Backend.probe(cache_dir=str(tmp_path))
        if backend.reason is not None:
            pytest.skip(f"no native kernels: {backend.reason}")
        monkeypatch.setattr(native, "_backend", backend)
        monkeypatch.setattr(native, "resolve_backend", lambda: backend)
        solves = []
        solve = GMGSolver.solve

        def counted(solver, *args, **kwargs):
            before = (backend.compiled + backend.loaded, backend.calls)
            result = solve(solver, *args, **kwargs)
            after = (backend.compiled + backend.loaded, backend.calls)
            solves.append((solver.tracer.enabled, before, after))
            return result

        monkeypatch.setattr(GMGSolver, "solve", counted)
        report = profile_solve(_config(rank_dims=(2, 1, 1)), machine_name=None)
        (warm, _, warmed), (traced, before, after) = solves
        assert not warm and traced
        assert before[0] == after[0] > 0  # all built before the traced solve
        # the traced solver's calls, its construction's included
        assert after[1] > before[1]
        assert f", {backend.calls - warmed[1]} calls, " in report.kernels


class TestFaultInstants:
    @pytest.fixture(scope="class")
    def faulted(self):
        plan = FaultPlan([FaultSpec("drop", vcycle=1, level=0, max_hits=1)])
        config = _config(rank_dims=(2, 1, 1))
        tracer = Tracer()
        solver = GMGSolver(config, fault_plan=plan, tracer=tracer)
        result = solver.solve()
        return tracer, result

    def test_injection_and_detection_traced(self, faulted):
        tracer, result = faulted
        names = [i.name for i in tracer.instants]
        assert "fault:inject_drop" in names
        assert any(n.startswith("fault:detect") for n in names)
        assert result.status == "converged"

    def test_message_faults_land_inside_an_exchange_span(self, faulted):
        tracer, _ = faulted
        by_index = {s.index: s for s in tracer.spans}
        message_faults = [
            i for i in tracer.instants
            if i.name in ("fault:inject_drop", "fault:detect_drop")
        ]
        assert message_faults
        for instant in message_faults:
            owner = by_index[instant.parent]
            assert owner.name == "exchange"
            assert owner.contains(instant.timestamp)
            assert owner.attrs["l"] == 0

    def test_every_instant_has_a_live_owner(self, faulted):
        tracer, _ = faulted
        by_index = {s.index: s for s in tracer.spans}
        for instant in tracer.instants:
            assert instant.parent in by_index
            assert by_index[instant.parent].contains(instant.timestamp)

    def test_fault_counters_in_metrics(self, faulted):
        from repro.obs import solve_metrics

        tracer, result = faulted
        snapshot = solve_metrics(result.recorder, tracer).snapshot()
        assert snapshot["counters"]["faults.injected"] >= 1
        assert snapshot["counters"]["faults.detected"] >= 1
        assert snapshot["gauges"]["trace.instants"] == len(tracer.instants)
        assert snapshot["gauges"]["trace.spans"] == len(tracer.spans)
