"""Tests of the ladder's own machinery (``pytest benchmarks/ladder``).

Not part of the tier-1 suite (``setup.cfg`` collects ``tests`` only).
They exercise the harness, never the timings.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
for _path in (ROOT, ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from benchmarks.ladder import compare, stats, trace, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def _spans(*rows):
    return [[name, start, end, parent, None] for name, start, end, parent in rows]


def test_self_time_is_duration_minus_what_children_cover():
    spans = _spans(
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("b", 5.0, 9.0, 0),
        ("a.inner", 2.0, 3.0, 1),
    )
    assert trace.self_times(spans) == [3.0, 2.0, 4.0, 1.0]
    assert sum(trace.self_times(spans)) == pytest.approx(10.0)


def test_overlapping_children_are_not_subtracted_twice():
    spans = _spans(
        ("root", 0.0, 10.0, None), ("a", 1.0, 6.0, 0), ("b", 4.0, 8.0, 0)
    )
    assert trace.self_times(spans)[0] == pytest.approx(3.0)
    assert trace.covered_length([(4.0, 8.0), (1.0, 6.0), (9.0, 9.5)]) == 7.5


def test_aggregate_counts_only_spans_under_the_root():
    spans = _spans(
        ("dsl.apply", 0.0, 5.0, None),  # warm-up, outside any solve
        ("solve", 10.0, 20.0, None),
        ("dsl.apply", 11.0, 15.0, 1),
        ("bricks.gather", 12.0, 13.0, 2),
    )
    rows = trace.aggregate(spans, "solve")
    assert rows["dsl.apply"] == {"self_s": 3.0, "total_s": 4.0, "calls": 1}
    assert rows["solve"]["self_s"] == 6.0
    assert trace.aggregate(spans)["dsl.apply"]["calls"] == 2


def test_tracer_nests_wrapped_calls_and_skips_unnamed_ones():
    ticks = iter(range(100))
    tracer = trace.SpanTracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: "x", "inner")
    skipped = tracer.wrap(lambda: inner(), lambda: None)
    outer = tracer.wrap(lambda: skipped(), lambda: "outer")
    assert outer() == "x"
    assert [(s[0], s[3]) for s in tracer.spans] == [("outer", None), ("inner", 0)]
    assert tracer.counts == {"outer": 1, "inner": 1}
    assert tracer.current is None


def test_hooks_restore_and_note_missing_entry_points():
    class Thing:
        def go(self):
            return 1

    thing, hooks = Thing(), trace.Hooks()
    assert hooks.patch(thing, "go", lambda f: lambda: f() + 1, "thing.go")
    assert hooks.patch(Thing, "go", lambda f: lambda self: 10, "Thing.go")
    assert thing.go() == 2
    assert not hooks.patch(thing, "gone", lambda f: f, "thing.gone")
    assert "gone" in hooks.missing["thing.gone"]
    assert hooks.module("repro.no_such_module", "nowhere") is None
    hooks.restore()
    assert thing.go() == 1 and "go" not in vars(thing)


def test_missing_entry_points_leave_named_reasons_not_crashes():
    from benchmarks.ladder import layers

    class BareCycle:  # a driver that lost everything but run()
        def run(self):
            return "ran"

    tracer = trace.SpanTracer()
    cycle = BareCycle()
    trace.hook_vcycle(tracer, cycle)
    trace.hook_vcycle(tracer, None)
    assert cycle.run() == "ran" and tracer.counts["gmg.vcycle"] == 1
    missing = tracer.hooks.missing
    assert {"gmg.residual_check", "gmg.smooth", "gmg.bottom", "comm.exchange"} <= set(missing)
    tracer.hooks.restore()

    found = layers.Layers()
    assert layers._probe(found, "repro.bricks.halo_plan", "NoSuchPlan", "bricks.gather") is None
    assert layers._probe(found, "repro.no_such_module", None, "comm") is None
    assert "NoSuchPlan" in found.reason_for("bricks.gather.l0.us")
    assert "cannot import" in found.reason_for("comm.exchange.l1.ms")
    assert found.reason_for("dsl.compile_ms") is None


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def test_highest_percentile_needs_ten_samples_beyond_it():
    assert stats.highest_percentile(8) is None
    assert stats.highest_percentile(19) is None
    assert stats.highest_percentile(20) == 50.0
    assert stats.highest_percentile(199) == 90.0
    assert stats.highest_percentile(200) == 95.0
    assert stats.highest_percentile(600) == 95.0  # 30 beyond p95, 6 beyond p99
    assert stats.highest_percentile(1000) == 99.0
    assert stats.highest_percentile(10_000) == 99.9


def test_percentile_and_spread_match_the_statistics_module():
    import statistics

    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.9, 7.9]
    assert stats.percentile(values, 50) == statistics.median(values)
    assert stats.percentile(values, 0) == 1.0 and stats.percentile(values, 100) == 9.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.spread(values[:3]) is None
    assert stats.summarize(values)["n"] == 10


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
def test_fault_plan_is_a_function_of_the_seed():
    assert workloads.fault_plan(3) == workloads.fault_plan(3)
    assert workloads.fault_plan(3) != workloads.fault_plan(4)


def test_every_fault_plan_costs_the_same():
    for seed in range(25):
        specs = workloads.fault_plan(seed).specs
        assert sorted(s.kind for s in specs) == sorted(
            ("sdc", "sdc") + workloads.MESSAGE_FAULTS
        )
        first, second = (s.vcycle for s in specs if s.kind == "sdc")
        assert second in (3, 5) and first < second
        # cycle 1 stays clean: setup_s times the same work at every seed
        assert all(s.max_hits == 1 and 2 <= s.vcycle <= 5 for s in specs)


def _mix(requests):
    return [(r.config.global_cells, r.amplitude) for r in requests]


def test_request_mix_is_a_function_of_the_seed():
    assert _mix(workloads.burst_requests(5)) == _mix(workloads.burst_requests(5))
    assert _mix(workloads.burst_requests(5)) != _mix(workloads.burst_requests(6))
    assert _mix(workloads.burst_requests(5, 0)) != _mix(workloads.burst_requests(5, 1))
    cells = [c for c, _ in _mix(workloads.burst_requests(5))]
    assert cells.count(8) == 72 and cells.count(16) == 24
    same = workloads.paced_requests(5, 2.0), workloads.paced_requests(5, 2.0)
    assert same[0][1] == same[1][1] and _mix(same[0][0]) == _mix(same[1][0])
    assert workloads.paced_requests(6, 2.0)[1] != same[0][1]
    arrivals = same[0][1]
    assert arrivals == sorted(arrivals) and len(arrivals) == 90


def test_production_fields_follow_solver_config():
    import dataclasses

    from repro.gmg import SolverConfig

    names = {f.name for f in dataclasses.fields(SolverConfig)}
    assert set(workloads.production_fields()) <= names
    default = workloads.solver_config("default_1rank_32")
    assert default == SolverConfig(global_cells=32, num_levels=3, brick_dim=4)


# ----------------------------------------------------------------------
# the gate
# ----------------------------------------------------------------------
def test_gate_counts_failures_without_raising():
    gate = workloads.Gate()
    gate.operation("fine", [])
    gate.operation("bad", ["status 'diverged'", "residual too large"])
    assert (gate.attempted, gate.failed, gate.correct) == (2, 1, False)
    assert gate.reasons == ["bad: status 'diverged'; residual too large"]


def test_closed_form_check_accepts_the_discrete_solution_only():
    import numpy as np

    cells = 16
    h = 1.0 / cells
    exact = workloads.closed_form(cells)
    eigenvalue = 3.0 * (2.0 * np.cos(2.0 * np.pi * h) - 2.0) / h**2
    discrete = exact * (-12.0 * np.pi**2) / eigenvalue
    assert workloads.solution_problems(discrete + 0.25) == []
    assert workloads.solution_problems(2.0 * discrete, amplitude=2.0) == []
    assert workloads.solution_problems(1.1 * discrete)
    assert workloads.solution_problems(np.full_like(discrete, np.nan))


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def test_compare_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98]
    assert compare.judge(steady, [v * 1.02 for v in steady], "lower", 0.05)["verdict"] == "ok"
    assert compare.judge(steady, [v * 1.20 for v in steady], "lower", 0.05)["verdict"] == "BREACH"
    assert compare.judge(steady, [v * 0.80 for v in steady], "higher", 0.05)["verdict"] == "BREACH"
    noisy = [1.0, 1.4, 0.7, 1.2, 0.9, 1.5]
    assert compare.judge(noisy, [v * 1.3 for v in noisy], "lower", 0.05)["verdict"] == "unresolved"
    # every run of B better than every run of A resolves a noisy pair
    assert compare.judge(noisy, [v * 0.3 for v in noisy], "lower", 0.05)["verdict"] == "ok"
    # a single run per side has no spread to judge
    assert compare.judge([1.0], [1.5], "lower", 0.05)["verdict"] == "BREACH"


def test_compare_command_exits_nonzero_on_a_breach(tmp_path):
    def result(scale):
        return {
            "correct": True,
            "end_to_end": {
                w["name"]: {
                    m["name"]: {"unit": m["unit"], "values": [scale, scale * 1.01]}
                    for m in SPEC["end_to_end"]
                }
                for w in SPEC["workloads"]
            },
        }

    a, same, slow = (tmp_path / n for n in ("a.json", "same.json", "slow.json"))
    a.write_text(json.dumps(result(1.0)))
    same.write_text(json.dumps(result(1.0)))
    slow.write_text(json.dumps(result(1.4)))
    assert compare.main([str(a), str(same)]) == 0
    assert compare.main([str(a), str(slow)]) == 1


# ----------------------------------------------------------------------
# BENCHMARK.json against the harness
# ----------------------------------------------------------------------
def test_benchmark_json_names_are_well_formed_and_unique():
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[key]
    ]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert SPEC["paths"] == ["benchmarks/ladder"]


def _run(*arguments):
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/ladder/run.py"), *arguments],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout, json.loads(done.stdout.strip().splitlines()[-1])


def test_untraced_run_prints_every_end_to_end_metric():
    stdout, result = _run(
        "--workload", "default_1rank_32", "--seed", "2", "--seconds", "1", "--trace", "0"
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0
        assert metric["name"] in stdout


def test_traced_run_prints_every_per_layer_metric_and_lists_no_other():
    out = ROOT / ".ladder-test-report.json"
    try:
        stdout, result = _run(
            "--workload", "exchange_8rank_32", "--seed", "2", "--seconds", "1",
            "--trace", "1", "--out", str(out),
        )
        report = json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    # everything the harness measures is listed in BENCHMARK.json
    assert report["unlisted"] == []
    assert report["manifest"]["threads"] == {
        "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"
    }
    measured = {n for n, e in result["metrics"].items() if e["value"] != 0}
    assert {"comm.exchange.share", "gmg.bottom.self_s", "dsl.smooth.l0.us",
            "bricks.gather.l0.us", "host.copy_gbps.dram", "comm.exchange.l2.msgs",
            "obs.trace_overhead_ratio"} <= measured
    for metric in SPEC["per_layer"]:
        assert metric["name"] in stdout
