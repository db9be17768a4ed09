"""Synthetic open-loop load generator for the solve service.

Generates a deterministic request stream (seeded amplitudes, optional
Poisson arrivals), runs it through a :class:`~repro.service.service
.SolveService`, and measures what a service operator gates on:
solves/sec, p50/p95 latency, batch occupancy — against the sequential
per-request baseline that the batched cohort must beat.

The report's ``metrics`` dict is lower-is-better throughout
(``ms_per_solve`` rather than solves/sec); ``repro loadgen
--min-speedup`` gates on ``speedup``.  Performance claims about the
service are argued from the benchmark ladder's ``service_small_8``
workload (``benchmarks/ladder``), not from this report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.gmg.solver import SolverConfig
from repro.service.request import SolveRequest, standalone_solve
from repro.service.service import SolveService

#: amplitude spread of generated requests: wide enough that cycle
#: counts differ across the cohort (staggered retirement), narrow
#: enough that no request dominates the stream
_AMPLITUDE_RANGE = (0.5, 2.0)


def generate_requests(
    base: SolverConfig,
    num_requests: int,
    seed: int = 0,
    rate_hz: float | None = None,
) -> tuple[list[SolveRequest], list[float]]:
    """A deterministic request stream over one geometry class.

    Amplitudes are drawn uniformly from :data:`_AMPLITUDE_RANGE`;
    arrivals are 0 (closed batch) or cumulative exponential
    inter-arrival gaps at ``rate_hz`` (open loop — arrivals do not wait
    for completions).
    """
    if num_requests < 1:
        raise ValueError(f"need at least one request: {num_requests}")
    rng = np.random.default_rng(seed)
    lo, hi = _AMPLITUDE_RANGE
    amplitudes = rng.uniform(lo, hi, size=num_requests)
    requests = [
        SolveRequest(
            config=base,
            amplitude=float(amplitudes[k]),
            request_id=f"load-{seed}-{k}",
        )
        for k in range(num_requests)
    ]
    if rate_hz is None:
        arrivals = [0.0] * num_requests
    else:
        if rate_hz <= 0:
            raise ValueError(f"rate_hz must be positive: {rate_hz}")
        gaps = rng.exponential(1.0 / rate_hz, size=num_requests)
        arrivals = [float(t) for t in np.cumsum(gaps)]
    return requests, arrivals


@dataclass
class LoadgenReport:
    """One load-generator run's measurements.

    ``metrics`` is the flat lower-is-better dict written by ``--json``;
    ``context`` carries the run description; the remaining fields
    support the CLI's human-readable table.
    """

    num_requests: int
    capacity: int
    solves_per_sec: float
    sequential_solves_per_sec: float
    speedup: float
    occupancy: float
    cycles_run: int
    metrics: dict = field(default_factory=dict)
    context: dict = field(default_factory=dict)
    latencies_ms: list[float] = field(default_factory=list, repr=False)

    def to_json(self) -> dict:
        return {
            "num_requests": self.num_requests,
            "capacity": self.capacity,
            "solves_per_sec": self.solves_per_sec,
            "sequential_solves_per_sec": self.sequential_solves_per_sec,
            "speedup": self.speedup,
            "occupancy": self.occupancy,
            "cycles_run": self.cycles_run,
            "metrics": self.metrics,
            "context": self.context,
            "latencies_ms": self.latencies_ms,
        }


def run_loadgen(
    base: SolverConfig,
    num_requests: int = 8,
    capacity: int = 8,
    seed: int = 0,
    rate_hz: float | None = None,
    baseline: bool = True,
    warmup: bool = True,
    repeats: int = 1,
    tracer=None,
    registry=None,
    service: SolveService | None = None,
) -> LoadgenReport:
    """Run one synthetic load against a (possibly shared) service.

    Measures the batched service pass with real wall-clock latencies,
    then (``baseline=True``) the same requests solved sequentially one
    standalone solver at a time — the ≥2x throughput claim
    ``--min-speedup`` gates is ``speedup`` here.

    ``warmup`` first runs one request through each path untimed, so
    both measurements see warm compile/plan caches and a built cohort —
    the steady state a long-lived service actually operates in.
    ``repeats`` runs each timed pass that many times and keeps the
    fastest (symmetric best-of-N, the usual noise shield on shared
    machines); the reported latencies come from the fastest service
    pass.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be positive: {repeats}")
    requests, arrivals = generate_requests(
        base, num_requests, seed=seed, rate_hz=rate_hz
    )
    service = service or SolveService(
        capacity=capacity, tracer=tracer, registry=registry
    )
    if warmup:
        warm = SolveRequest(config=base, amplitude=1.0)
        service.submit([warm])
        standalone_solve(warm)
    cohort = service.cohort_for(requests[0])
    occ_cycles, occ_active = cohort.occupancy_totals()
    cycles_start = cohort.cycles_run
    service_wall = float("inf")
    results: list = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        rep_results = service.submit(requests, arrivals=arrivals)
        wall = time.perf_counter() - t0
        if len(rep_results) != num_requests:
            raise RuntimeError(
                f"service returned {len(rep_results)} results for "
                f"{num_requests} requests"
            )
        if wall < service_wall:
            service_wall = wall
            results = rep_results
    latencies_ms = sorted(1e3 * r.latency_s for r in results)
    cycles, active = cohort.occupancy_totals()
    cycles, active = cycles - occ_cycles, active - occ_active
    occupancy = active / cycles / cohort.capacity if cycles else 0.0

    seq_wall = float("nan")
    if baseline:
        seq_wall = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for request in requests:
                standalone_solve(request)
            seq_wall = min(seq_wall, time.perf_counter() - t0)

    solves_per_sec = num_requests / service_wall if service_wall > 0 else 0.0
    seq_sps = num_requests / seq_wall if baseline and seq_wall > 0 else 0.0
    speedup = seq_wall / service_wall if baseline and service_wall > 0 else 0.0
    metrics = {
        "ms_per_solve": 1e3 * service_wall / num_requests,
        "p50_ms": float(np.percentile(latencies_ms, 50)),
        "p95_ms": float(np.percentile(latencies_ms, 95)),
    }
    if baseline:
        metrics["sequential_ms_per_solve"] = 1e3 * seq_wall / num_requests
    report = LoadgenReport(
        num_requests=num_requests,
        capacity=capacity,
        solves_per_sec=solves_per_sec,
        sequential_solves_per_sec=seq_sps,
        speedup=speedup,
        occupancy=occupancy,
        cycles_run=(cohort.cycles_run - cycles_start) // repeats,
        metrics=metrics,
        context={
            "global_cells": base.global_cells,
            "num_levels": base.num_levels,
            "brick_dim": base.brick_dim,
            "num_requests": num_requests,
            "capacity": capacity,
            "seed": seed,
            "rate_hz": rate_hz if rate_hz is not None else 0.0,
            "repeats": repeats,
        },
        latencies_ms=latencies_ms,
    )
    reg = service.registry
    reg.gauge("service.loadgen.solves_per_sec", solves_per_sec, owner="loadgen")
    reg.gauge("service.loadgen.p50_ms", metrics["p50_ms"], owner="loadgen")
    reg.gauge("service.loadgen.p95_ms", metrics["p95_ms"], owner="loadgen")
    reg.gauge("service.loadgen.speedup", speedup, owner="loadgen")
    reg.gauge("service.loadgen.occupancy", report.occupancy, owner="loadgen")
    return report


def smoke_config(**overrides) -> SolverConfig:
    """The small geometry the service smoke jobs and docs examples use.

    Deliberately tiny (8³ cells, 2³ bricks): per-level work is launch-
    overhead-bound, which is exactly the regime where batching N
    requests onto one stacked index space pays — the simulated analogue
    of the paper's small-kernel GPU levels.  At throughput-bound sizes
    the cohort matches (never beats) sequential array bandwidth.
    """
    base = SolverConfig(
        global_cells=8,
        num_levels=3,
        brick_dim=2,
        max_smooths=4,
        bottom_smooths=16,
        max_vcycles=100,
    )
    return replace(base, **overrides) if overrides else base
