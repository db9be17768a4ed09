"""Tests for the multi-tenant solve service (repro.service).

The load-bearing property is *bit-identity*: a request solved inside a
cohort of any occupancy — one rank or several, agglomerated or not —
must reproduce the standalone solver's
residual history and solution exactly — floats
compared with ``==`` and arrays with ``array_equal``, no tolerances.
Alongside ride the single-solve-lifetime fixes the service forced:
geometry-keyed plan caches, owner-scoped metric registration, and
per-fork tracer timelines.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.bricks.plan_cache import PlanLRUCache, cache_stats
from repro.gmg.solver import GMGSolver, SolverConfig
from repro.obs.chrome_trace import to_chrome_trace, validate_chrome_trace
from repro.obs.metrics import MetricsRegistry, solve_metrics
from repro.obs.tracer import Tracer
from repro.service import (
    CohortSolver,
    SolveRequest,
    SolveService,
    geometry_key,
    standalone_solve,
)
from repro.service.loadgen import generate_requests, run_loadgen, smoke_config


def tiny_config(**overrides) -> SolverConfig:
    base = dict(
        global_cells=8,
        num_levels=2,
        brick_dim=2,
        max_smooths=2,
        bottom_smooths=8,
        max_vcycles=6,
    )
    base.update(overrides)
    return SolverConfig(**base)


def assert_identical(cohort_result, reference) -> None:
    assert cohort_result.residual_history == reference.residual_history
    assert cohort_result.converged == reference.converged
    assert cohort_result.num_vcycles == reference.num_vcycles
    assert np.array_equal(cohort_result.solution, reference.solution)


# ---------------------------------------------------------------------------
# bit-identity: request-in-cohort == standalone
# ---------------------------------------------------------------------------
VARIANTS = {
    "production": {},
    # one walled rank keeps its ghost shell (one periodic rank has none)
    "walled-1rank": {"boundary": "dirichlet"},
    "multirank": {"rank_dims": (2, 1, 1)},
    "walled": {"boundary": "dirichlet", "rank_dims": (2, 1, 1)},
    "gsrb": {"smoother": "gsrb"},
    # 8 -> 2 -> 1 active ranks: an unmerged->merged transition, a
    # merged-fine transition and a merged->merged canonical restriction
    "multirank-agg": {
        "global_cells": 32,
        "num_levels": 4,
        "brick_dim": 4,
        "rank_dims": (4, 2, 1),
        "agglomerate_threshold": 1000,
    },
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_cohort_bit_identical_to_standalone(variant):
    cfg = tiny_config(**VARIANTS[variant])
    cohort = CohortSolver(cfg, capacity=3)
    requests = [SolveRequest(cfg, amplitude=a) for a in (1.0, 0.7, 1.9)]
    results = {r.request.request_id: r for r in cohort.solve_stream(requests)}
    assert len(results) == 3
    for request in requests:
        assert_identical(results[request.request_id], standalone_solve(request))


def test_single_request_among_idle_slots():
    """One tenant in an otherwise empty capacity-8 cohort sees exactly
    the standalone floats (idle slots hold zeros and never couple)."""
    cfg = tiny_config()
    cohort = CohortSolver(cfg, capacity=8)
    request = SolveRequest(cfg, amplitude=1.3)
    (result,) = cohort.solve_stream([request])
    assert_identical(result, standalone_solve(request))


def test_retire_and_join_stream_bit_identical():
    """Heterogeneous tolerances through fewer slots than requests:
    retirements free slots, joiners enter at cycle boundaries mid-flight
    of their neighbours — every trajectory stays standalone-exact."""
    cfg = tiny_config(max_vcycles=12)
    cohort = CohortSolver(cfg, capacity=3)
    requests = [
        SolveRequest(
            replace(cfg, tol=[1e-2, 1e-4, 1e-7][k % 3]),
            amplitude=0.5 + 0.3 * k,
        )
        for k in range(8)
    ]
    results = {r.request.request_id: r for r in cohort.solve_stream(requests)}
    assert len(results) == 8
    joined = sorted(results[q.request_id].joined_at_cycle for q in requests)
    assert joined[0] == 0 and joined[-1] > 0  # some really joined late
    for request in requests:
        assert_identical(results[request.request_id], standalone_solve(request))


def test_requests_with_different_tols_share_a_cohort():
    cfg = tiny_config()
    relaxed = replace(cfg, tol=1e-2, max_vcycles=99)
    assert geometry_key(cfg) == geometry_key(relaxed)
    assert geometry_key(cfg) != geometry_key(tiny_config(global_cells=16))


def test_cohort_rejects_reducing_bottom_solver():
    with pytest.raises(ValueError, match="relaxation"):
        CohortSolver(tiny_config(bottom_solver="cg"), capacity=2)


def test_cohort_rejects_foreign_geometry():
    cohort = CohortSolver(tiny_config(), capacity=2)
    alien = SolveRequest(tiny_config(global_cells=16))
    with pytest.raises(ValueError, match="geometry"):
        cohort.solve_stream([alien])


def test_stacked_hierarchy_rejects_what_would_couple_its_copies():
    from repro.faults.plan import FaultPlan
    from repro.faults.recovery import ResilienceConfig
    from repro.gmg.solver import Hierarchy

    with pytest.raises(ValueError, match="copies must be positive"):
        Hierarchy(tiny_config(), copies=0)
    with pytest.raises(ValueError, match="per communicator"):
        Hierarchy(tiny_config(), fault_plan=FaultPlan(), copies=2)
    with pytest.raises(ValueError, match="per communicator"):
        Hierarchy(tiny_config(), resilience=ResilienceConfig(), copies=2)
    with pytest.raises(ValueError, match="relaxation"):
        Hierarchy(tiny_config(bottom_solver="fft"), copies=2)


@pytest.mark.parametrize("variant", ["walled-1rank", "multirank", "multirank-agg"])
def test_cohort_is_one_hierarchy(variant, monkeypatch):
    """A capacity-k cohort is one hierarchy of k copies, not k
    hierarchies: one communicator, one recorder, and per depth one
    level and one exchanger (plus a staging level where agglomeration
    shrinks the rank grid) are ever constructed, each level stacking k
    copies of the ranks that compute it, and every exchange is one
    planned call serving all k copies."""
    from repro.comm.exchange import HaloExchange
    from repro.comm.simmpi import SimComm
    from repro.gmg.level import Level
    from repro.instrument import Recorder

    built = Counter()
    for cls in (SimComm, Recorder, HaloExchange, Level):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    cfg = tiny_config(**VARIANTS[variant])
    cohort = CohortSolver(cfg, capacity=4)
    hierarchy = cohort.hierarchy
    plan = hierarchy.agglomeration
    assert (plan is not None) == (variant == "multirank-agg")
    depths = hierarchy.depths
    staged = [d for d in depths if d.staging is not None]
    assert len(depths) == cfg.num_levels
    assert built == {
        "SimComm": 1,
        "Recorder": 1,
        "HaloExchange": len(hierarchy.halo_exchangers()),
        "Level": len(depths) + len(staged),
    }
    assert len(hierarchy.halo_exchangers()) == cfg.num_levels
    size = cfg.num_ranks
    for lev, depth in enumerate(depths):
        active = range(size) if plan is None else plan.active_ranks(lev)
        assert depth.ranks == tuple(c * size + r for c in range(4) for r in active)
        assert depth.level.num_blocks == 4 * len(active)
    assert [d.staging.num_blocks for d in staged] == [
        depths[lev - 1].level.num_blocks
        for lev, d in enumerate(depths) if d.staging is not None
    ]
    assert bool(staged) == (plan is not None)

    requests = [SolveRequest(cfg, amplitude=1.0 + k) for k in range(4)]
    assert len(cohort.solve_stream(requests)) == 4
    # the recorder restarts at admissions only: a closed batch that
    # fits the cohort keeps every exchange it ran
    ran = hierarchy.recorder.exchange_counts()
    assert sum(ran.values()) > 0
    assert cohort.vcycle.exchangers == hierarchy.exchangers
    for lev, ex in hierarchy.halo_exchangers():
        assert ex.path_counts == {"planned": ran[lev], "envelope": 0}
    halo_messages = [
        ev for ev in hierarchy.recorder.messages
        if ev.direction_kind not in ("gather", "scatter")
    ]
    assert len(halo_messages) == 4 * sum(
        ex.plan.num_messages * ran[lev] for lev, ex in hierarchy.halo_exchangers()
    )
    assert hierarchy.comm.sent_messages == len(hierarchy.recorder.messages)


def test_ghostless_cohort_builds_no_exchanger(monkeypatch):
    """Members of one periodic rank have no ghost shell: the cohort
    builds no exchanger and no exchange plan, exchanges nothing, and
    every stacked level stores interior bricks only."""
    from repro.comm.exchange import HaloExchange
    from repro.comm.plan import ExchangePlan

    built = Counter()
    for cls in (HaloExchange, ExchangePlan):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    cfg = tiny_config(**VARIANTS["production"])
    cohort = CohortSolver(cfg, capacity=4)
    hierarchy = cohort.hierarchy
    assert hierarchy.exchangers == [None] * cfg.num_levels
    assert hierarchy.halo_exchangers() == []
    for lev in range(cfg.num_levels):
        grid = cohort.vcycle.depths[lev].level.grid
        assert grid.ghost_bricks == 0
        assert grid.num_slots == grid.num_interior
    requests = [SolveRequest(cfg, amplitude=1.0 + k) for k in range(4)]
    assert len(cohort.solve_stream(requests)) == 4
    assert built == {}
    assert hierarchy.recorder.exchange_counts() == {}
    assert hierarchy.recorder.messages == []
    assert hierarchy.comm.sent_messages == 0


def test_retired_slot_is_zeroed_and_its_neighbour_untouched():
    """Retirement zeroes exactly one copy: every field row of the slot
    at every depth, and its staging levels, are all-zero bytes, while a
    neighbour mid-solve goes on to its standalone result."""
    cfg = tiny_config(**VARIANTS["multirank-agg"])
    cohort = CohortSolver(cfg, capacity=3)
    quick = SolveRequest(replace(cfg, max_vcycles=2), amplitude=1.0)
    slow = SolveRequest(replace(cfg, max_vcycles=4), amplitude=1.7)
    slots = [cohort.admit(quick), cohort.admit(slow)]
    assert slots == [0, 1] and cohort.seed(slots) == []
    assert cohort.cycle() == []
    busy = list(cohort._slot_storage(0))
    # x, b, Ax, r of 4 stacked depths and of 2 stacked staging levels:
    # this copy's block rows of each
    assert len(busy) == 4 * (4 + 2)
    assert all(a.any() for a in busy[0::4] + busy[1::4])  # every x and b
    (retired,) = cohort.cycle()
    assert retired.request is quick and cohort.free_slots == 2
    assert not any(a.tobytes().strip(b"\0") for a in cohort._slot_storage(0))
    assert all(a.any() for a in list(cohort._slot_storage(1))[0::4])
    (result,) = cohort.cycle() + cohort.cycle()
    assert_identical(result, standalone_solve(slow))


def test_solve_stream_needs_one_arrival_per_request():
    cfg = tiny_config()
    cohort = CohortSolver(cfg, capacity=2)
    requests = [SolveRequest(cfg) for _ in range(3)]
    with pytest.raises(ValueError, match="one arrival offset per request"):
        cohort.solve_stream(requests, arrivals=[0.0, 0.0])
    assert cohort.active_count == 0 and cohort.cycles_run == 0


def test_solve_stream_admits_in_arrival_order():
    """Arrivals need not be sorted: a request due now is not held
    behind an earlier-listed one due later."""
    cfg = tiny_config()
    cohort = CohortSolver(cfg, capacity=3)
    requests = [SolveRequest(cfg, amplitude=1.0 + k) for k in range(3)]
    ticks = itertools.count()  # a clock advancing 1 ms per reading
    results = cohort.solve_stream(
        requests, arrivals=[0.5, 0.0, 0.0], clock=lambda: 0.001 * next(ticks)
    )
    by_request = {r.request.request_id: r for r in results}
    late, *due = (by_request[q.request_id] for q in requests)
    assert [r.joined_at_cycle for r in due] == [0, 0]
    assert all(r.latency_s < 0.1 for r in due)
    assert late.joined_at_cycle > 0 and late.arrival_s == 0.5
    for request in requests:
        assert_identical(by_request[request.request_id], standalone_solve(request))


# ---------------------------------------------------------------------------
# the service front-end
# ---------------------------------------------------------------------------
def test_service_groups_by_geometry_and_caches_cohorts():
    registry = MetricsRegistry()
    service = SolveService(capacity=2, registry=registry)
    small, large = tiny_config(), tiny_config(global_cells=16)
    requests = [
        SolveRequest(small, amplitude=1.0),
        SolveRequest(large, amplitude=0.8),
        SolveRequest(small, amplitude=1.5),
    ]
    results = service.submit(requests)
    assert len(results) == 3
    assert service.num_cohorts == 2
    assert registry.get("service.cohorts_built") == 2
    for request in requests:
        got = next(r for r in results if r.request is request)
        assert_identical(got, standalone_solve(request))
    # resubmission reuses both cohorts — the workspace cache at work
    service.submit([SolveRequest(small), SolveRequest(large)])
    assert service.num_cohorts == 2
    assert registry.get("service.cohorts_built") == 2
    assert registry.get("service.cohort_cache_hits") == 2
    assert registry.get("service.requests") == 5


def test_loadgen_smoke_reports_speedup_and_ledger_metrics():
    report = run_loadgen(
        smoke_config(), num_requests=4, capacity=4, seed=1, warmup=True
    )
    assert report.num_requests == 4
    assert report.speedup > 0
    assert report.occupancy > 0.5
    assert len(report.latencies_ms) == 4
    assert report.metrics["p50_ms"] <= report.metrics["p95_ms"]
    # every metric is lower-is-better and positive
    for key in ("ms_per_solve", "p50_ms", "p95_ms", "sequential_ms_per_solve"):
        assert report.metrics[key] > 0
    payload = report.to_json()
    assert payload["context"]["capacity"] == 4


def test_loadgen_open_loop_arrivals_are_monotone():
    requests, arrivals = generate_requests(
        smoke_config(), 6, seed=3, rate_hz=50.0
    )
    assert len(requests) == len(arrivals) == 6
    assert all(b >= a for a, b in zip(arrivals, arrivals[1:]))
    ids = [r.request_id for r in requests]
    assert len(set(ids)) == 6


def test_long_lived_cohort_state_is_bounded(monkeypatch):
    """A cohort's event logs restart with each slot assignment: after
    many bursts they are no longer than after a few, and what a burst
    returns and what the cohort reports do not change."""
    from repro.service import cohort as cohort_module

    monkeypatch.setattr(cohort_module, "OCCUPANCY_WINDOW", 32)
    cfg = tiny_config()

    def burst(k):
        return [
            SolveRequest(config=cfg, amplitude=1.0 + 0.25 * i, request_id=f"{k}-{i}")
            for i in range(6)
        ]

    service = SolveService(capacity=4)
    first = service.submit(burst(0))
    cohort = service.cohort_for(first[0].request)
    cycles_per_burst = cohort.cycles_run
    occupancy = cohort.occupancy()
    assert 0.0 < occupancy <= 1.0

    def log_sizes():
        recorder = cohort.hierarchy.recorder
        return (
            len(recorder.messages),
            len(recorder.kernels),
            len(cohort.occupancy_samples),
        )

    sizes = []
    for k in range(1, 21):
        results = service.submit(burst(k))
        for result, reference in zip(results, first):
            assert_identical(result, reference)
        sizes.append(log_sizes())
    early, late = sizes[:10], sizes[10:]
    for column in range(3):
        assert max(s[column] for s in late) <= max(s[column] for s in early)
    assert len(cohort.occupancy_samples) < 2 * 32
    assert cohort.occupancy_samples[-1][0] == cohort.cycles_run - 1
    # the reported figures still cover every cycle ever run
    assert cohort.cycles_run == 21 * cycles_per_burst
    assert cohort.occupancy_totals()[0] == cohort.cycles_run
    assert cohort.occupancy() == pytest.approx(occupancy)
    assert service.registry.get("service.cohort.occupancy") == cohort.occupancy()
    assert cohort.requests_retired == 21 * 6


# ---------------------------------------------------------------------------
# satellite 1: geometry-keyed bounded plan caches
# ---------------------------------------------------------------------------
def test_plan_lru_cache_eviction_and_stats():
    cache = PlanLRUCache("test.lru", maxsize=2)
    try:
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes a
        cache.put("c", 3)  # evicts b
        assert cache.get("b") is None
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["size"] == 2
        assert cache_stats()["test.lru"]["hits"] == stats["hits"]
    finally:
        cache.unregister()


def test_congruent_solvers_share_native_kernels(native_backend):
    cfg = tiny_config()
    GMGSolver(cfg).solve()
    built = (native_backend.compiled, native_backend.loaded)
    assert sum(built) > 0
    GMGSolver(cfg).solve()  # congruent: no second compile, no second load
    assert (native_backend.compiled, native_backend.loaded) == built


# ---------------------------------------------------------------------------
# satellite 2: owner-scoped metric registration
# ---------------------------------------------------------------------------
def test_metrics_owner_idempotent_re_registration():
    registry = MetricsRegistry()
    registry.gauge("svc.depth", 3.0, owner="svc")
    # same owner may redefine the name, even across kinds
    registry.counter("svc.depth", 1.0, owner="svc")
    assert registry.get("svc.depth") == 1.0
    # a different owner may not
    with pytest.raises(ValueError, match="already"):
        registry.gauge("svc.depth", 9.0, owner="other")
    # unowned writes keep the strict collision error
    registry.counter("legacy.count", 1.0)
    with pytest.raises(ValueError, match="already"):
        registry.gauge("legacy.count", 2.0)


def test_two_solves_fold_into_one_registry():
    """The long-lived-service regression: two back-to-back solves must
    observe into one registry without collision errors."""
    cfg = tiny_config()
    registry = MetricsRegistry()
    for _ in range(2):
        solver = GMGSolver(cfg)
        solver.solve()
        registry.observe_recorder(solver.recorder)
        registry.observe_plan_caches()
    assert registry.get("kernels.total") > 0


def test_solve_metrics_includes_plan_cache_gauges():
    cfg = tiny_config()
    solver = GMGSolver(cfg)
    solver.solve()
    registry = solve_metrics(solver.recorder)
    snapshot = registry.snapshot()
    assert any(k.startswith("cache.") for k in snapshot["gauges"])


# ---------------------------------------------------------------------------
# satellite 3: per-fork tracer timelines
# ---------------------------------------------------------------------------
def test_interleaved_forked_solves_export_valid_chrome_trace():
    root = Tracer()
    cfg = tiny_config()
    a, b = root.fork("cohort-0"), root.fork("cohort-1")
    # interleave two solves' spans on sibling timelines
    solver_a, solver_b = GMGSolver(cfg, tracer=a), GMGSolver(cfg, tracer=b)
    with a.span("solve"):
        solver_a.vcycle.run()
        with b.span("solve"):
            solver_b.vcycle.run()
    trace = to_chrome_trace(root)
    counts = validate_chrome_trace(trace)
    assert counts["spans"] > 0
    # both forks appear as named threads under the driver pid
    labels = {
        ev["args"]["name"]
        for ev in trace["traceEvents"]
        if ev.get("ph") == "M" and ev.get("name") == "thread_name"
    }
    assert {"fork cohort-0", "fork cohort-1"} <= labels


def test_fork_timelines_are_isolated_but_share_epoch():
    root = Tracer()
    fork = root.fork("f")
    assert root.fork("f") is fork  # cached by key
    with fork.span("x"):
        pass
    assert not root.spans  # fork records never leak into the root
    assert fork.spans[0].name == "x"


def test_service_traces_each_cohort_into_its_own_fork():
    tracer = Tracer()
    service = SolveService(capacity=2, tracer=tracer)
    service.submit([SolveRequest(tiny_config())])
    assert list(tracer.forks) == ["cohort-0"]
    fork = tracer.forks["cohort-0"]
    assert fork.find("cohort-stream")
    validate_chrome_trace(to_chrome_trace(tracer))
