"""Per-layer metrics: module microbenchmarks and the traced run.

Module names are the layers (``host`` is the normaliser, not a layer of
``repro``).  Every number is measured from outside, by timing calls
into public functions; the traced run gives each layer's share of a
workload.  Entry points are probed: one that is gone leaves its
metrics unavailable, with the reason kept in :attr:`Layers.reasons`.
"""

from __future__ import annotations

import importlib
import statistics
import time

import numpy as np

from benchmarks.ladder import manifest, stats, trace, workloads

#: the geometry the dsl/bricks microbenchmarks run on, and the comm one
KERNEL_GEOMETRY = "kernel_1rank_64"
EXCHANGE_GEOMETRY = "exchange_8rank_32"

#: repetitions of each workload in the traced run, and of the untraced
#: reference its overhead ratio is taken against
TRACED_REPETITIONS = 2

#: the six face-neighbour read offsets of the 7-point operator
FACE_OFFSETS = (
    (-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1),
)

#: arrays of the DRAM copy measurement: four times the last-level
#: cache, but no more than this.  On the baseline microVM the first
#: touch of guest memory costs >10 us a page, so GiB arrays cost 15-25 s
#: a run; copy bandwidth there is flat from 4 MiB up (the 260 MiB L3
#: is the host's, shared), so 128 MiB already streams from DRAM
DRAM_ARRAY_CAP_BYTES = 128 << 20


class Layers:
    """Per-layer metric values plus why any are unavailable."""

    def __init__(self) -> None:
        self.values: dict[str, float] = {}
        self.reasons: dict[str, str] = {}
        #: free-form facts for the report (sizes, sample counts)
        self.notes: dict = {}
        #: the traced run's tracer, for writing the spans out
        self.tracer: trace.SpanTracer | None = None

    def set(self, name: str, value) -> None:
        self.values[name] = float(value)

    def unavailable(self, prefix: str, reason: str) -> None:
        """Every metric named ``prefix`` or ``prefix.*`` is unavailable."""
        self.reasons[prefix] = reason

    def reason_for(self, name: str) -> str | None:
        for prefix, reason in self.reasons.items():
            if name == prefix or name.startswith(prefix + "."):
                return reason
        return None


def _probe(layers: Layers, module: str, attr: str | None, prefix: str):
    """``module.attr`` (or the module), or None with the reason noted."""
    try:
        found = importlib.import_module(module)
    except ImportError as exc:
        layers.unavailable(prefix, f"cannot import {module}: {exc}")
        return None
    if attr is None:
        return found
    found = getattr(found, attr, None)
    if found is None:
        layers.unavailable(prefix, f"{module} has no {attr}")
    return found


def median_seconds(call, budget_s: float = 0.06, least: int = 5, most: int = 400) -> float:
    """Median wall seconds of ``call`` over a small time budget."""
    call()
    call()
    times = []
    spent = 0.0
    while len(times) < least or (spent < budget_s and len(times) < most):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return statistics.median(times)


# ----------------------------------------------------------------------
# host: normalisers only
# ----------------------------------------------------------------------
def host_metrics(layers: Layers, level_bytes: list[int]) -> None:
    """NumPy copy bandwidth at each level's working-set size and from
    DRAM, and the cost of dispatching one tiny NumPy call."""
    llc = manifest.last_level_cache_bytes()
    for lev, nbytes in enumerate(level_bytes):
        src = np.ones(nbytes // 8)
        dst = np.empty_like(src)
        seconds = median_seconds(lambda: np.copyto(dst, src))
        # a copy reads and writes every byte
        layers.set(f"host.copy_gbps.l{lev}", 2 * src.nbytes / seconds / 1e9)
    resident = [llc is not None and 2 * b <= llc for b in level_bytes]
    dram_bytes = min(4 * llc, DRAM_ARRAY_CAP_BYTES) if llc else DRAM_ARRAY_CAP_BYTES
    src = np.ones(dram_bytes // 8)
    dst = np.empty_like(src)
    seconds = median_seconds(lambda: np.copyto(dst, src), budget_s=0.0, least=3)
    layers.set("host.copy_gbps.dram", 2 * src.nbytes / seconds / 1e9)
    del src, dst
    a, b, c = np.ones(8), np.ones(8), np.empty(8)

    def thousand_adds():
        for _ in range(1000):
            np.add(a, b, out=c)

    layers.set("host.np_dispatch_ns", median_seconds(thousand_adds) * 1e6)
    layers.notes["host"] = {
        "level_working_set_bytes": level_bytes,
        "level_cache_resident": resident,
        "llc_bytes": llc,
        "dram_array_bytes": dram_bytes,
    }


# ----------------------------------------------------------------------
# dsl: generated kernels on the kernel workload's level geometries
# ----------------------------------------------------------------------
def _compute_level(solver, lev: int):
    """The object the V-cycle hands its kernels at depth ``lev``."""
    engine = getattr(solver, "engine", None)
    stacked = engine.stacked_level(lev) if engine is not None else None
    return stacked if stacked is not None else solver.rank_levels[0][lev]


def _kernels_launched(kernel_cls, call) -> list:
    """The compiled kernels one ``call`` applies, in order."""
    launched: list = []

    def noting(apply):
        def wrapper(kernel, *args, **kwargs):
            launched.append(kernel)
            return apply(kernel, *args, **kwargs)

        return wrapper

    hooks = trace.Hooks()
    hooks.patch(kernel_cls, "apply", noting, "dsl.apply")
    try:
        call()
    finally:
        hooks.restore()
    return launched


def dsl_metrics(layers: Layers, solver) -> None:
    ops = _probe(layers, "repro.gmg.operators", None, "dsl")
    kernel_cls = _probe(layers, "repro.dsl.codegen", "CompiledKernel", "dsl")
    smoother = getattr(getattr(solver, "vcycle", None), "smoother", None)
    if ops is None or kernel_cls is None:
        return
    if smoother is None:
        layers.unavailable("dsl", "solver.vcycle has no smoother")
        return
    rng = np.random.default_rng(0)
    series: dict[str, list] = {}
    for lev in range(solver.config.num_levels):
        level = _compute_level(solver, lev)
        for field in level.fields().values():
            field.data[...] = rng.standard_normal(field.data.shape)
        calls = {
            "applyOp": lambda: ops.apply_op(level),
            "smooth": lambda: smoother.iterate(level, False, None),
            "smooth_residual": lambda: smoother.iterate(level, True, None),
        }
        copy_gbps = layers.values.get(f"host.copy_gbps.l{lev}")
        for kernel, call in calls.items():
            # computed traffic: what the kernels this call launches must
            # move at the least, by the DSL's own analysis
            launched = _kernels_launched(kernel_cls, call)
            bytes_per_point = sum(k.analysis.bytes_per_point for k in launched)
            seconds = median_seconds(call)
            gbps = bytes_per_point * level.num_points / seconds / 1e9
            prefix = f"dsl.{kernel}.l{lev}"
            layers.set(f"{prefix}.us", seconds * 1e6)
            layers.set(f"{prefix}.gbps", gbps)
            if copy_gbps:
                layers.set(f"{prefix}.frac_copy_bw", gbps / copy_gbps)
            series.setdefault(kernel, []).append(
                (level.num_points, seconds, bytes_per_point)
            )
    fit = _probe(layers, "repro.perf.linear_model", "fit_from_times", "dsl.fit")
    for kernel, rows in series.items():
        if fit is None:
            layers.unavailable(f"dsl.{kernel}.alpha_us", layers.reasons["dsl.fit"])
            layers.unavailable(f"dsl.{kernel}.beta_gbps", layers.reasons["dsl.fit"])
            continue
        points, seconds, bytes_per_point = zip(*rows)
        model = fit(np.array(points), np.array(seconds))
        layers.set(f"dsl.{kernel}.alpha_us", model.alpha * 1e6)
        layers.set(f"dsl.{kernel}.beta_gbps", model.beta * bytes_per_point[0] / 1e9)
    stencil = _probe(layers, "repro.dsl.library", "SMOOTH_RESIDUAL", "dsl.compile_ms")
    if stencil is not None:
        brick_dim = solver.config.brick_dim
        layers.set(
            "dsl.compile_ms",
            median_seconds(lambda: kernel_cls(stencil, brick_dim), least=3) * 1e3,
        )
    layers.notes["dsl"] = "gbps are computed bytes (StencilAnalysis.bytes_per_point x points), not measured traffic"


# ----------------------------------------------------------------------
# bricks: gathers, ghost fill, plan construction
# ----------------------------------------------------------------------
def level_working_sets(solver) -> list[int]:
    """Bytes of one field, ghosts included, at each level of rank 0."""
    return [level.x.data.nbytes for level in solver.rank_levels[0]]


def bricks_metrics(layers: Layers, solver) -> None:
    array_cls = _probe(layers, "repro.bricks", "BrickedArray", "bricks")
    if array_cls is None:
        return
    plan_for = _probe(layers, "repro.bricks.halo_plan", "offset_plan_for", "bricks.gather")
    plan_cls = _probe(layers, "repro.bricks.halo_plan", "OffsetGatherPlan", "bricks.plan_build_ms")
    gather_extended = _probe(layers, "repro.bricks.halo", "gather_extended", "bricks.gather_extended")
    rng = np.random.default_rng(1)
    for lev, level in enumerate(solver.rank_levels[0]):
        grid = level.grid
        field = array_cls.zeros(grid)
        field.data[...] = rng.standard_normal(field.data.shape)
        if plan_for is not None:
            plan = plan_for(grid, FACE_OFFSETS, 0)
            out = np.empty((len(FACE_OFFSETS),) + field.data.shape)
            seconds = median_seconds(lambda: plan.gather(field.data, out=out))
            layers.set(f"bricks.gather.l{lev}.us", seconds * 1e6)
            # computed: every gathered byte is read once and written once
            layers.set(f"bricks.gather.l{lev}.gbps", 2 * out.nbytes / seconds / 1e9)
        if gather_extended is not None:
            ext = grid.brick_dim + 2
            buf = np.empty((grid.num_slots, ext, ext, ext))
            layers.set(
                f"bricks.gather_extended.l{lev}.us",
                median_seconds(lambda: gather_extended(field, 1, out=buf)) * 1e6,
            )
        fill = getattr(field, "fill_ghost_periodic", None)
        if fill is None:
            layers.unavailable(
                "bricks.periodic_fill", "BrickedArray has no fill_ghost_periodic"
            )
        else:
            layers.set(f"bricks.periodic_fill.l{lev}.us", median_seconds(fill) * 1e6)
    if plan_cls is not None:
        grid = solver.rank_levels[0][0].grid
        layers.set(
            "bricks.plan_build_ms",
            median_seconds(lambda: plan_cls(grid, FACE_OFFSETS, 0), least=3) * 1e3,
        )


def plan_cache_hit_ratio(layers: Layers) -> None:
    cache_stats = _probe(
        layers, "repro.bricks.plan_cache", "cache_stats", "bricks.plan_cache.hit_ratio"
    )
    if cache_stats is None:
        return
    caches = cache_stats().values()
    hits = sum(c["hits"] for c in caches)
    misses = sum(c["misses"] for c in caches)
    layers.set(
        "bricks.plan_cache.hit_ratio", hits / (hits + misses) if hits + misses else 0.0
    )


# ----------------------------------------------------------------------
# comm: one ghost exchange per level on the 2x2x2 geometry
# ----------------------------------------------------------------------
def comm_metrics(layers: Layers) -> None:
    solver = workloads.make_solver(EXCHANGE_GEOMETRY, 0)
    exchangers = getattr(solver, "exchangers", None)
    recorder = getattr(solver, "recorder", None)
    if exchangers is None or recorder is None:
        for prefix in ("comm.exchange", "comm.msgs_per_s", "comm.bytes_per_s"):
            layers.unavailable(prefix, "solver has no exchangers/recorder")
        return
    total_msgs = total_bytes = total_seconds = 0.0
    for lev, exchanger in enumerate(exchangers):
        fields = [[levels[lev].x] for levels in solver.rank_levels]
        recorder.clear()
        exchanger.exchange(lev, fields)
        msgs = len(recorder.messages)
        nbytes = sum(m.nbytes for m in recorder.messages)
        seconds = median_seconds(lambda: exchanger.exchange(lev, fields), budget_s=0.15)
        recorder.clear()
        layers.set(f"comm.exchange.l{lev}.ms", seconds * 1e3)
        layers.set(f"comm.exchange.l{lev}.msgs", msgs)
        layers.set(f"comm.exchange.l{lev}.bytes", nbytes)
        total_msgs += msgs
        total_bytes += nbytes
        total_seconds += seconds
    layers.set("comm.msgs_per_s", total_msgs / total_seconds)
    layers.set("comm.bytes_per_s", total_bytes / total_seconds)


def host_calibration() -> dict:
    """The ``host.*`` normalisers alone, for a report's manifest."""
    layers = Layers()
    host_metrics(
        layers, level_working_sets(workloads.make_solver(KERNEL_GEOMETRY, 0))
    )
    return {**layers.values, "sizes": layers.notes["host"]}


def microbenchmarks(layers: Layers) -> None:
    """The workload-independent rungs: host, dsl, bricks, comm."""
    solver = workloads.make_solver(KERNEL_GEOMETRY, 0)
    bricks_metrics(layers, solver)
    host_metrics(layers, level_working_sets(solver))
    dsl_metrics(layers, solver)
    del solver
    comm_metrics(layers)


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
def _matching(rows: dict, prefix: str, key: str) -> float:
    return sum(
        row[key] for name, row in rows.items()
        if name == prefix or name.startswith(prefix + ".")
    )


def breakdown(layers: Layers, tracer: trace.SpanTracer, root: str, operations: int) -> None:
    """Fold spans into per-layer self times, per traced operation."""
    rows = trace.aggregate(tracer.spans, root)
    wall = rows.get(root, {}).get("total_s", 0.0)
    if not wall:
        layers.unavailable("obs.trace_coverage", f"no {root!r} span was recorded")
        return
    per_op = 1.0 / operations
    for name, row in rows.items():
        if name.startswith(("gmg.smooth.", "gmg.restrict.", "gmg.interp.")):
            layers.set(f"{name}.self_s", row["self_s"] * per_op)
        if name.startswith("gmg.smooth."):
            layers.set(f"{name}.total_s", row["total_s"] * per_op)
    for name in ("gmg.bottom", "gmg.residual_check"):
        if name in rows:
            layers.set(f"{name}.self_s", rows[name]["self_s"] * per_op)
    if "gmg.bottom" in rows:
        layers.set("gmg.bottom.total_s", rows["gmg.bottom"]["total_s"] * per_op)
    for metric, prefix in (
        ("comm.exchange", "comm.exchange"),
        ("dsl.apply", "dsl.apply"),
        ("bricks.gather", "bricks.gather"),
    ):
        own = _matching(rows, prefix, "self_s")
        layers.set(f"{metric}.self_s", own * per_op)
        layers.set(f"{metric}.share", own / wall)
    # time under the root that no hooked layer accounts for
    layers.set("obs.trace_coverage", 1.0 - rows[root]["self_s"] / wall)
    layers.set("obs.spans", sum(r["calls"] for r in rows.values()) * per_op)
    for label, reason in tracer.hooks.missing.items():
        layers.unavailable(label, f"hook not attached: {reason}")


def _traced_solves(layers: Layers, name: str, seed: int, gate) -> None:
    tracer = trace.SpanTracer()
    trace.hook_layers(tracer)
    try:
        traced, described, _ = workloads.timed_solves(
            name, seed, gate, repetitions=TRACED_REPETITIONS, tracer=tracer
        )
    finally:
        tracer.hooks.restore()
    untraced, _, _ = workloads.timed_solves(
        name, seed, gate, repetitions=TRACED_REPETITIONS
    )
    breakdown(layers, tracer, "solve", len(traced))
    layers.set(
        "obs.trace_overhead_ratio",
        statistics.median(traced) / statistics.median(untraced),
    )
    layers.set("gmg.vcycles", described["vcycles"])
    layers.set("gmg.convergence_factor", described["convergence_factor"])
    layers.set("comm.retries", described["retries"])
    layers.set("comm.retransmits", described["retransmits"])
    layers.set("faults.rollbacks", described["rollbacks"])
    layers.set("faults.executed_vcycles", described["executed_vcycles"])
    layers.set("faults.checkpoints", described["checkpoints"])
    if name == "faulted_8rank_32":
        clean, _, _ = workloads.timed_solves(
            EXCHANGE_GEOMETRY, seed, gate, repetitions=TRACED_REPETITIONS
        )
        layers.set(
            "faults.overhead_ratio",
            statistics.median(untraced) / statistics.median(clean),
        )
    layers.notes["traced_samples_s"] = traced
    layers.notes["untraced_samples_s"] = untraced
    layers.tracer = tracer


def _service_cohorts(service) -> list:
    """The service's cohorts, found through its public lookup."""
    cohort_for = getattr(service, "cohort_for", None)
    if cohort_for is None:
        return []
    return [
        cohort_for(workloads.SolveRequest(config=workloads.service_config(c)))
        for c in (workloads.SMALL_CLASS, workloads.BIG_CLASS)
    ]


def _traced_service(layers: Layers, seed: int, seconds: float, gate) -> None:
    tracer = trace.SpanTracer()
    trace.hook_layers(tracer)
    try:
        # built under the hooks and dropped with them (see hook_layers)
        service = workloads.new_service(seed)
        tracer.hooks.patch(
            service, "submit", lambda f: tracer.wrap(f, "service.submit"),
            "service.submit",
        )
        cohorts = _service_cohorts(service)
        if not cohorts:
            layers.unavailable("service.occupancy", "SolveService has no cohort_for")
            layers.unavailable("service.cycles_run", "SolveService has no cohort_for")
        for cohort in cohorts:
            trace.hook_vcycle(tracer, getattr(cohort, "vcycle", None))
        registry = getattr(service, "registry", None)
        counters = ("service.cohort_cache_hits", "service.cohorts_built")
        before = [registry.get(c) for c in counters] if registry is not None else None
        marks = [
            (len(getattr(c, "occupancy_samples", [])), getattr(c, "cycles_run", 0))
            for c in cohorts
        ]
        traced_wall = workloads.burst_pass(service, seed, 0, gate)
        active = capacity = cycles = 0
        for cohort, (mark, cycles_before) in zip(cohorts, marks):
            samples = getattr(cohort, "occupancy_samples", [])[mark:]
            active += sum(n for _, n in samples)
            capacity += len(samples) * cohort.capacity
            cycles += getattr(cohort, "cycles_run", 0) - cycles_before
        if capacity:
            layers.set("service.occupancy", active / capacity)
            layers.set("service.cycles_run", cycles)
        if registry is None:
            layers.unavailable(
                "service.cohort_cache_hit_ratio", "SolveService has no registry"
            )
        else:
            # the cohorts were built during warm-up (two misses); the
            # burst then looks each geometry class up once
            hits = registry.get(counters[0]) - before[0]
            built = registry.get(counters[1])
            layers.set("service.cohort_cache_hit_ratio", hits / (hits + built))
    finally:
        tracer.hooks.restore()
    breakdown(layers, tracer, "service.submit", 1)

    service = workloads.new_service(seed)
    untraced_wall = workloads.burst_pass(service, seed, 0, gate)
    latencies, lateness = workloads.paced_pass(
        service, seed, workloads.PACED_SHARE * seconds, gate
    )
    layers.set("service.latency_p50_s", stats.percentile(latencies, 50.0))
    layers.set("service.latency_p95_s", stats.percentile(latencies, 95.0))
    layers.set(
        "service.generator_lateness_p95_s", stats.percentile(lateness, 95.0)
    )
    layers.set("obs.trace_overhead_ratio", traced_wall / untraced_wall)
    layers.set("service.solves_per_s", workloads.BURST_REQUESTS / untraced_wall)
    standalone = workloads.probe_standalone_solve()
    if standalone is None:
        layers.unavailable(
            "service.speedup_vs_sequential", "repro.service has no standalone_solve"
        )
    else:
        # a quarter of the burst, in its seeded order, solved one by one
        subset = workloads.burst_requests(seed, 0)[: workloads.BURST_REQUESTS // 4]
        start = time.perf_counter()
        for request in subset:
            standalone(request)
        sequential_wall = (time.perf_counter() - start) * (
            workloads.BURST_REQUESTS / len(subset)
        )
        layers.set("service.speedup_vs_sequential", sequential_wall / untraced_wall)
    layers.notes["paced_requests"] = len(latencies)
    layers.notes["latency_tail_percentile"] = stats.highest_percentile(len(latencies))
    layers.tracer = tracer


def run_traced(name: str, seed: int, seconds: float) -> dict:
    """Per-layer metrics of one workload (never end-to-end numbers)."""
    layers = Layers()
    gate = workloads.Gate()
    if name == workloads.SERVICE_WORKLOAD:
        _traced_service(layers, seed, seconds, gate)
    else:
        workloads.warm_up(name, seed)
        _traced_solves(layers, name, seed, gate)
    plan_cache_hit_ratio(layers)
    microbenchmarks(layers)
    return {"layers": layers, "gate": gate}
