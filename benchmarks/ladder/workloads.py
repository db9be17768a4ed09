"""The five ladder workloads: seeded inputs, timed loops, the gate.

``repro`` is driven only through its public API.  ``--seed`` feeds only
generated inputs — where the faults strike and which requests arrive
when — never the amount of work: every seed of a workload costs the
same by construction, so runs at different seeds are comparable.
"""

from __future__ import annotations

import dataclasses
import resource
import statistics
import time

import numpy as np

from repro.faults import FaultPlan, ResilienceConfig
from repro.gmg import GMGSolver, SolverConfig
from repro.service import SolveRequest, SolveService

from benchmarks.ladder import stats, trace

SOLVE_WORKLOADS = (
    "kernel_1rank_64",
    "exchange_8rank_32",
    "faulted_8rank_32",
    "default_1rank_32",
)
SERVICE_WORKLOAD = "service_small_8"
WORKLOADS = SOLVE_WORKLOADS + (SERVICE_WORKLOAD,)

_GEOMETRY = {
    "kernel_1rank_64": dict(global_cells=64, num_levels=4, brick_dim=8),
    "exchange_8rank_32": dict(
        global_cells=32, num_levels=3, brick_dim=4, rank_dims=(2, 2, 2)
    ),
    "faulted_8rank_32": dict(
        global_cells=32, num_levels=3, brick_dim=4, rank_dims=(2, 2, 2)
    ),
    # every execution field at its default: the README's first example
    "default_1rank_32": dict(global_cells=32, num_levels=3, brick_dim=4),
}

#: launch-bound service request classes (cells, brick_dim); both run 3
#: levels, 4 smooths, 16 bottom smooths
SMALL_CLASS = dict(global_cells=8, brick_dim=2)
BIG_CLASS = dict(global_cells=16, brick_dim=4)
_SERVICE_COMMON = dict(num_levels=3, max_smooths=4, bottom_smooths=16)
SERVICE_CAPACITY = 8
#: burst phase: requests per pass and the small:big mix (3:1)
BURST_SMALL, BURST_BIG = 72, 24
BURST_REQUESTS = BURST_SMALL + BURST_BIG
#: paced phase: open-loop Poisson arrivals of the small class at a
#: fixed rate — about 45% of the ~97 solves/s one cohort of 8 sustains
#: for that class on the baseline host
PACED_RATE_HZ = 45.0
#: share of ``--seconds`` the paced pass's arrival schedule spans
PACED_SHARE = 0.45
AMPLITUDE_RANGE = (0.5, 2.0)
#: requests per service pass re-solved standalone and compared bitwise
IDENTITY_SAMPLES = 4

#: max-norm residual every solve must reach
TOL = 1e-10
#: |u_h - u| <= C h^2 against the closed form: this mode's 7-point
#: discretisation error is h^2/36, so 0.05 leaves headroom, no more
ERROR_CONSTANT = 0.05

#: the faulted plan: two silent corruptions (each forces a rollback)
#: and six message faults (each forces a retry or a discard)
MESSAGE_FAULTS = ("drop", "drop", "corrupt", "corrupt", "duplicate", "delay")
_FAULT_LEVELS = (0, 1, 2)
_FAULT_RANKS = 8

#: children timed per run for ``setup_s`` (the median is reported)
SETUP_CHILDREN = 3
#: timed samples a run takes at the very least
MIN_SAMPLES = 3


def production_fields() -> dict:
    """The engine toggles of the production path that ``SolverConfig``
    still has.  Probed, so the PR that makes that path the only one
    can delete the fields without editing this benchmark."""
    names = {f.name for f in dataclasses.fields(SolverConfig)}
    return {
        name: True
        for name in ("halo_resident", "fuse_kernels", "batch_ranks")
        if name in names
    }


def solver_config(name: str, **overrides) -> SolverConfig:
    fields = dict(_GEOMETRY[name])
    if name != "default_1rank_32":
        fields.update(production_fields())
    fields.update(overrides)
    return SolverConfig(**fields)


def service_config(request_class: dict) -> SolverConfig:
    return SolverConfig(
        **request_class, **_SERVICE_COMMON, **production_fields()
    )


def fault_plan(seed: int) -> FaultPlan:
    """Eight seeded one-shot faults of fixed composition.

    The seed picks where and when each fault strikes; the cost is the
    same for every seed.  With checkpoints every two clean cycles, a
    corruption at an odd cycle discards one cycle and at an even cycle
    two, and the first rollback shifts the clock for the second — so
    the second corruption is pinned to cycle 3 or 5 and the first to
    an earlier cycle, which always re-executes three cycles in two
    rollbacks.  Cycle 1 stays clean, so the one-cycle solve that
    ``setup_s`` times does the same work at every seed.  Built from
    single-fault ``FaultPlan.random`` draws so only ``FaultPlan``
    itself is imported.
    """
    rng = np.random.default_rng([seed, 0xFA])
    second = int(rng.choice((3, 5)))
    first = int(rng.integers(2, second))
    sites = [("sdc", first), ("sdc", second)] + [
        (kind, int(rng.integers(2, 6))) for kind in MESSAGE_FAULTS
    ]
    specs = []
    for kind, vcycle in sites:
        level = int(rng.choice(_FAULT_LEVELS))
        one = FaultPlan.random(
            int(rng.integers(2**31)), 1, kinds=(kind,),
            vcycles=(vcycle, vcycle), levels=(level,),
            num_ranks=_FAULT_RANKS,
        )
        specs.extend(one.specs)
    return FaultPlan(specs=tuple(specs))


def make_solver(name: str, seed: int, **overrides) -> GMGSolver:
    config = solver_config(name, **overrides)
    if name == "faulted_8rank_32":
        return GMGSolver(
            config, resilience=ResilienceConfig(), fault_plan=fault_plan(seed)
        )
    return GMGSolver(config)


def burst_requests(seed: int, pass_index: int = 0) -> list[SolveRequest]:
    """One burst pass: 72 small and 24 big requests in seeded order
    with seeded amplitudes — two geometry classes, so the cohort cache
    both hits and misses."""
    rng = np.random.default_rng([seed, 0xB0, pass_index])
    small, big = service_config(SMALL_CLASS), service_config(BIG_CLASS)
    configs = [small] * BURST_SMALL + [big] * BURST_BIG
    order = rng.permutation(len(configs))
    amplitudes = rng.uniform(*AMPLITUDE_RANGE, size=len(configs))
    return [
        SolveRequest(
            config=configs[k], amplitude=float(amplitudes[i]),
            request_id=f"burst-{seed}-{pass_index}-{i}",
        )
        for i, k in enumerate(order)
    ]


def paced_requests(
    seed: int, duration_s: float
) -> tuple[list[SolveRequest], list[float]]:
    """The paced pass: small-class requests with Poisson arrivals at
    :data:`PACED_RATE_HZ` spanning about ``duration_s`` seconds."""
    rng = np.random.default_rng([seed, 0xAC])
    count = max(20, int(PACED_RATE_HZ * duration_s))
    config = service_config(SMALL_CLASS)
    amplitudes = rng.uniform(*AMPLITUDE_RANGE, size=count)
    arrivals = np.cumsum(rng.exponential(1.0 / PACED_RATE_HZ, size=count))
    requests = [
        SolveRequest(
            config=config, amplitude=float(amplitudes[i]),
            request_id=f"paced-{seed}-{i}",
        )
        for i in range(count)
    ]
    return requests, [float(t) for t in arrivals]


# ----------------------------------------------------------------------
# the correctness gate
# ----------------------------------------------------------------------
class Gate:
    """Counts operations attempted and failed; never raises, never
    drops a sample.  Each failure keeps a one-line reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        #: checks that could not run, with why (not failures)
        self.skipped: list[str] = []

    def operation(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.append(f"{label}: " + "; ".join(problems))

    @property
    def correct(self) -> bool:
        return self.failed == 0


def closed_form(cells: int) -> np.ndarray:
    """The PDE solution ``-b / (12 pi^2)`` at the cell centres of the
    unit cube, computed here rather than taken from ``repro``."""
    centres = (np.arange(cells, dtype=np.float64) + 0.5) / cells
    s = np.sin(2.0 * np.pi * centres)
    b = s[:, None, None] * s[None, :, None] * s[None, None, :]
    return b / (-12.0 * np.pi**2)


def solution_problems(solution: np.ndarray, amplitude: float = 1.0) -> list[str]:
    cells = solution.shape[0]
    # the periodic operator fixes the solution up to a constant
    error = float(
        np.max(np.abs(solution - solution.mean() - amplitude * closed_form(cells)))
    )
    limit = ERROR_CONSTANT * abs(amplitude) / cells**2
    if not error <= limit:
        return [f"solution off the closed form by {error:.3e} > {limit:.3e}"]
    return []


def solve_problems(solver, result, reference_history=None) -> list[str]:
    """Everything wrong with one finished solve (empty when fine)."""
    problems = []
    if result.status != "converged":
        problems.append(f"status {result.status!r}")
    if not result.final_residual <= TOL:
        problems.append(f"final residual {result.final_residual:.3e} > {TOL:g}")
    if (
        reference_history is not None
        and list(result.residual_history) != list(reference_history)
    ):
        problems.append("residual history differs from the reference")
    problems.extend(solution_problems(solver.solution()))
    return problems


def probe_standalone_solve():
    """``repro.service.standalone_solve`` if it still exists."""
    import repro.service

    return getattr(repro.service, "standalone_solve", None)


def identity_problems(result, reference) -> list[str]:
    problems = []
    if list(result.residual_history) != list(reference.residual_history):
        problems.append("residual history differs from standalone_solve")
    if not np.array_equal(result.solution, reference.solution):
        problems.append("solution differs from standalone_solve")
    return problems


def check_service_pass(gate: Gate, rng, requests, results, label: str) -> None:
    """Every request must converge; a seeded sample must also equal
    its standalone solve bit for bit and sit on the closed form."""
    by_id = {r.request.request_id: r for r in results}
    standalone = probe_standalone_solve()
    sampled = set(
        rng.choice(len(requests), size=min(IDENTITY_SAMPLES, len(requests)),
                   replace=False).tolist()
    )
    note = "bit-identity to standalone_solve: repro.service has none"
    if standalone is None and note not in gate.skipped:
        gate.skipped.append(note)
    for k, request in enumerate(requests):
        result = by_id.get(request.request_id)
        if result is None:
            gate.operation(f"{label} {request.request_id}", ["no result"])
            continue
        problems = []
        if not result.converged:
            problems.append("did not converge")
        if not result.final_residual <= request.config.tol:
            problems.append(f"final residual {result.final_residual:.3e}")
        if k in sampled:
            problems.extend(
                solution_problems(result.solution, request.amplitude)
            )
            if standalone is not None:
                problems.extend(identity_problems(result, standalone(request)))
        gate.operation(f"{label} {request.request_id}", problems)


# ----------------------------------------------------------------------
# timed operations
# ----------------------------------------------------------------------
def solve_once(name: str, seed: int, tracer=None):
    """Build and solve once; returns ``(seconds, solver, result)``.

    With a tracer the same two calls run inside a ``solve`` span and
    the cycle driver is hooked between them; the hooks live on objects
    that die with the solver.
    """
    start = time.perf_counter()
    if tracer is None:
        solver = make_solver(name, seed)
        result = solver.solve()
    else:
        with tracer.span("solve"):
            with tracer.span("gmg.construct"):
                solver = make_solver(name, seed)
            trace.hook_vcycle(tracer, getattr(solver, "vcycle", None))
            result = solver.solve()
    return time.perf_counter() - start, solver, result


def warm_up(name: str, seed: int) -> None:
    """Compile kernels and build plans before anything is timed."""
    make_solver(name, seed, max_vcycles=1).solve()


def describe_result(result) -> dict:
    counts = result.fault_counts
    return {
        "status": result.status,
        "vcycles": result.num_vcycles,
        "executed_vcycles": result.executed_vcycles,
        "rollbacks": result.rollbacks,
        "convergence_factor": result.convergence_factor,
        "final_residual": result.final_residual,
        "retries": counts.get("retry", 0),
        "retransmits": counts.get("retransmit", 0),
        "checkpoints": counts.get("checkpoint", 0),
    }


def timed_solves(
    name: str, seed: int, gate: Gate, seconds: float | None = None,
    repetitions: int | None = None, tracer=None,
):
    """Timed closed loop of solves: until ``seconds`` are spent (at
    least :data:`MIN_SAMPLES` samples) or for a fixed ``repetitions``.

    Returns ``(samples, first result description, first history)``;
    each solve is checked between — not inside — timed regions.
    """
    samples: list[float] = []
    described = history = None
    loop_start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.operation = len(samples)
        elapsed, solver, result = solve_once(name, seed, tracer)
        samples.append(elapsed)
        gate.operation(
            f"{name} solve {len(samples)}",
            solve_problems(solver, result, reference_history=history),
        )
        if history is None:
            history = list(result.residual_history)
            described = describe_result(result)
        del solver, result
        if repetitions is not None:
            if len(samples) >= repetitions:
                break
        elif len(samples) >= MIN_SAMPLES and (
            time.perf_counter() - loop_start + statistics.median(samples)
            > seconds
        ):
            # the next solve would overrun the measuring time
            break
    return samples, described, history


def new_service(warm_seed: int) -> SolveService:
    """A service with both cohorts built and kernels compiled."""
    service = SolveService(capacity=SERVICE_CAPACITY)
    for request_class in (SMALL_CLASS, BIG_CLASS):
        service.submit(
            [SolveRequest(config=service_config(request_class),
                          request_id=f"warm-{warm_seed}-{request_class['global_cells']}")]
        )
    return service


def burst_pass(service, seed: int, pass_index: int, gate: Gate):
    """One closed burst of 96 requests at t=0; returns wall seconds."""
    requests = burst_requests(seed, pass_index)
    start = time.perf_counter()
    results = service.submit(requests)
    wall = time.perf_counter() - start
    rng = np.random.default_rng([seed, 0x1D, pass_index])
    check_service_pass(gate, rng, requests, results, "burst")
    return wall


class ArrivalClock:
    """``perf_counter`` that also notes how late the service looked.

    The cohort polls its clock for due arrivals at cycle boundaries;
    a request's lateness is the gap between its due time and the first
    poll at or after it — how late the open-loop stream could hand the
    request over, before any queueing for a free slot.
    """

    def __init__(self, arrivals) -> None:
        self.arrivals = arrivals
        self.lateness: list[float] = []
        self._origin = None

    def __call__(self) -> float:
        now = time.perf_counter()
        if self._origin is None:
            self._origin = now
        offset = now - self._origin
        while (
            len(self.lateness) < len(self.arrivals)
            and self.arrivals[len(self.lateness)] <= offset
        ):
            self.lateness.append(offset - self.arrivals[len(self.lateness)])
        return now


def paced_pass(service, seed: int, duration_s: float, gate: Gate):
    """The open-loop pass; latencies are timed from each request's due
    arrival.  Returns ``(latencies, generator lateness)``."""
    requests, arrivals = paced_requests(seed, duration_s)
    clock = ArrivalClock(arrivals)
    results = service.submit(requests, arrivals=arrivals, clock=clock)
    rng = np.random.default_rng([seed, 0x1E])
    check_service_pass(gate, rng, requests, results, "paced")
    return [r.latency_s for r in results], clock.lateness


def peak_rss_mb() -> float:
    """High-water resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# set-up: what a fresh process pays before its first result
# ----------------------------------------------------------------------
def setup_once(name: str, seed: int) -> dict:
    """Construction plus the first one-cycle solve (for the service:
    construction plus the first one-request submit per geometry class)
    in this — fresh — process, after imports."""
    start = time.perf_counter()
    if name == SERVICE_WORKLOAD:
        new_service(seed)
    else:
        warm_up(name, seed)
    return {"setup_s": time.perf_counter() - start, "rss_mb": peak_rss_mb()}


# ----------------------------------------------------------------------
# the untraced run: end-to-end metrics
# ----------------------------------------------------------------------
def run_untraced(name: str, seed: int, seconds: float, setup_runner) -> dict:
    """End-to-end metrics of one workload.

    ``setup_runner(name, seed)`` runs :func:`setup_once` in a fresh
    child process and returns its dict.
    """
    gate = Gate()
    children = [setup_runner(name, seed) for _ in range(SETUP_CHILDREN)]
    setup_samples = [c["setup_s"] for c in children]
    detail: dict = {"setup_rss_mb": statistics.median(c["rss_mb"] for c in children)}
    history = None
    if name == SERVICE_WORKLOAD:
        samples = _timed_bursts(seed, seconds, gate, detail)
    else:
        warm_up(name, seed)
        samples, described, history = timed_solves(name, seed, gate, seconds=seconds)
        detail.update(described)
    rss = peak_rss_mb()
    _cross_checks(name, seed, gate, detail, history)
    return {
        "values": {
            "solve_s": statistics.median(samples),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": rss,
        },
        "summaries": {
            "solve_s": stats.summarize(samples),
            "setup_s": stats.summarize(setup_samples),
        },
        "detail": detail,
        "gate": gate,
    }


def _timed_bursts(seed: int, seconds: float, gate: Gate, detail: dict) -> list[float]:
    """Burst passes until ``seconds`` are spent; seconds per solve with
    the cohorts full — what a batch caller pays per request."""
    service = new_service(seed)
    start = time.perf_counter()
    walls: list[float] = []
    while len(walls) < MIN_SAMPLES or (
        time.perf_counter() - start + statistics.median(walls) <= seconds
    ):
        walls.append(burst_pass(service, seed, len(walls), gate))
    detail.update(
        burst_passes=len(walls),
        solves_per_s=BURST_REQUESTS / statistics.median(walls),
    )
    return [w / BURST_REQUESTS for w in walls]


def _cross_checks(name: str, seed: int, gate: Gate, detail: dict, history) -> None:
    """Gate checks that compare against another workload or seed."""
    if name == "exchange_8rank_32":
        # the production path over eight ranks and the default path on
        # one rank must produce the same residual history, bit for bit
        _, solver, result = solve_once("default_1rank_32", seed)
        gate.operation(
            "default_1rank_32 history == exchange_8rank_32 history",
            solve_problems(solver, result, reference_history=history),
        )
    elif name == "faulted_8rank_32":
        # a second fault plan must recover to the same answer; faults
        # must not change the committed history, only the work done
        _, solver, result = solve_once(name, seed + 1)
        gate.operation(
            f"faulted_8rank_32 recovers at seed {seed + 1}",
            solve_problems(solver, result, reference_history=history),
        )
        detail["second_seed"] = describe_result(result)
