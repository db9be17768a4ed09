"""Counters and gauges, bridged from the event :class:`Recorder`.

The :class:`~repro.instrument.Recorder` keeps raw event lists (every
kernel, every message, every fault); a :class:`MetricsRegistry` is the
aggregated, exportable view — one flat snapshot of counters and gauges
suitable for JSON artifacts, the profile report, or scraping.  It also
surfaces ``Recorder.reductions``, which the event layer counted but no
aggregation ever reported.
"""

from __future__ import annotations

from repro.instrument import Recorder


class MetricsRegistry:
    """A flat namespace of monotonic counters and point-in-time gauges."""

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        #: registering owner per name (``None`` for unowned writes)
        self._owners: dict[str, object] = {}

    # ------------------------------------------------------------------
    def _claim(self, name: str, kind: str, owner) -> None:
        """Kind-collision policy shared by :meth:`counter`/:meth:`gauge`.

        A name is either a counter or a gauge, never both: :meth:`get`
        (and the flat snapshot consumers) could not tell which series a
        value belongs to.  In a long-lived process the *same* component
        legitimately re-registers its metrics every solve, so a kind
        conflict from one non-``None`` owner is an idempotent
        redefinition (the stale series is dropped); a conflict across
        different owners — or from unowned writes, where nothing proves
        the two writers are the same component — keeps the error.
        """
        other = self._gauges if kind == "counter" else self._counters
        if name not in other:
            if name not in self._owners:
                self._owners[name] = owner
            return
        prior = self._owners.get(name)
        if owner is not None and owner == prior:
            del other[name]
            self._owners[name] = owner
            return
        held = "gauge" if kind == "counter" else "counter"
        raise ValueError(f"{name!r} is already a {held}, not a {kind}")

    def counter(self, name: str, value: float = 1.0, owner=None) -> None:
        """Add ``value`` to counter ``name`` (creating it at 0).

        ``owner`` scopes registration for long-lived registries: see
        :meth:`_claim` for the collision policy.
        """
        if value < 0:
            raise ValueError(f"counters only increase: {name}={value}")
        self._claim(name, "counter", owner)
        self._counters[name] = self._counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float, owner=None) -> None:
        """Set gauge ``name`` to ``value`` (last write wins).

        ``owner`` scopes registration for long-lived registries: see
        :meth:`_claim` for the collision policy.
        """
        self._claim(name, "gauge", owner)
        self._gauges[name] = float(value)

    def get(self, name: str, default: float = 0.0) -> float:
        if name in self._counters:
            return self._counters[name]
        return self._gauges.get(name, default)

    # ------------------------------------------------------------------
    def observe_recorder(self, recorder: Recorder) -> None:
        """Fold one solve's event record into the registry.

        Kernels, messages, exchanges, reductions and faults all become
        counters; per-level detail keeps the ``<name>.level<l>`` key
        shape so snapshots stay flat.
        """
        for (lev, op), n in recorder.kernel_counts().items():
            self.counter(f"kernels.level{lev}.{op}", n)
        for (lev, op), pts in recorder.kernel_points().items():
            self.counter(f"kernel_points.level{lev}.{op}", pts)
        self.counter("kernels.total", len(recorder.kernels))
        self.counter("messages.total", len(recorder.messages))
        self.counter(
            "messages.bytes", sum(ev.nbytes for ev in recorder.messages)
        )
        for lev, n in recorder.message_counts_by_level().items():
            self.counter(f"messages.level{lev}.count", n)
        for lev, nbytes in recorder.message_bytes_by_level().items():
            self.counter(f"messages.level{lev}.bytes", nbytes)
        for lev, n in recorder.exchange_counts().items():
            self.counter(f"exchanges.level{lev}", n)
        self.counter("exchanges.total", sum(recorder.exchange_counts().values()))
        self.counter("reductions.total", recorder.reductions)
        for kind, n in recorder.fault_counts().items():
            self.counter(f"faults.{kind}", n)
        self.counter("faults.injected", recorder.injected_faults)
        self.counter("faults.detected", recorder.detected_faults)

    def observe_plan_caches(self) -> None:
        """Snapshot the geometry-keyed plan caches' hit statistics.

        One gauge per cache per stat (``cache.<name>.hits`` etc.) —
        gauges, not counters, because the underlying totals are
        process-cumulative and an observe-per-cohort registry would
        otherwise double-count them.
        """
        from repro.bricks.plan_cache import cache_stats

        for cache_name, stats in cache_stats().items():
            for stat, value in stats.items():
                self.gauge(
                    f"cache.{cache_name}.{stat}", value, owner="plan_caches"
                )

    def observe_native_kernels(self) -> None:
        """Snapshot the native kernel cache: ``cache.native_kernel.hits``
        (shared objects loaded from the cache directory), ``.misses``
        (compiled by this process) and ``.compile_ms``; and what the
        kernels were asked for: ``kernels.native.calls`` (foreign calls
        into stencil kernels), ``kernels.native.sweeps`` (stencil sweeps
        those calls ran — more than the calls where a smoother handed
        over whole exchange windows) and ``kernels.native.intergrid``
        (foreign calls into restriction and interpolation kernels).  All zero when the kernels ran through NumPy.  Gauges,
        as in :meth:`observe_plan_caches`: the totals are
        process-cumulative.
        """
        from repro.dsl import native

        for stat, value in native.stats().items():
            self.gauge(
                f"cache.native_kernel.{stat}", value, owner="native_kernels"
            )
        for stat, value in native.call_counts().items():
            self.gauge(f"kernels.native.{stat}", value, owner="native_kernels")

    def observe_exchange_paths(self, exchangers) -> None:
        """Snapshot which execution each ghost exchange took.

        ``exchangers`` is :meth:`GMGSolver.halo_exchangers`' ``(level,
        exchanger)`` list.  Every exchange is an index copy off the
        exchange plan; ``exchanges.planned`` counts those accounted
        from the plan, ``exchanges.envelope`` those that posted
        per-message headers (with per-level detail; only these take
        CRC32 sums) and ``exchanges.envelope.<reason>`` which of the
        three :meth:`HaloExchange.envelope_reason` answers selected
        them, as tallied when each exchange chose (none on a fault-free
        solve, traced or not); the plan cache's own hit/miss sits under
        ``cache.exchange_plan.*`` (:meth:`observe_plan_caches`).
        Gauges, for the same reason as there: the tallies are
        cumulative per exchanger.
        """
        totals: dict[str, int] = {}
        for lev, ex in exchangers:
            for path, n in ex.path_counts.items():
                for name in (f"exchanges.{path}", f"exchanges.level{lev}.{path}"):
                    totals[name] = totals.get(name, 0) + n
            for reason, n in ex.envelope_reasons.items():
                name = f"exchanges.envelope.{reason.replace(' ', '_')}"
                totals[name] = totals.get(name, 0) + n
        for name, n in totals.items():
            self.gauge(name, n, owner="exchange_paths")

    def observe_recovery(self, result) -> None:
        """Record a solve's rank-crash recovery SLO metrics.

        ``result`` is a :class:`~repro.gmg.solver.SolveResult`; gauges
        cover mean-time-to-repair, bytes adopted from buddy replicas,
        committed cycles discarded, and how many ranks came back — the
        numbers a :class:`~repro.faults.scenarios.Outcome` carries and
        ``repro chaossweep`` tabulates.
        """
        self.gauge("recovery.mttr_ms", result.mttr_s * 1e3)
        self.gauge("recovery.bytes_restored", result.bytes_restored)
        self.gauge("recovery.cycles_lost", result.cycles_lost)
        self.gauge("recovery.recovered_ranks", len(result.recovered_ranks))

    def observe_agglomeration(self, agglomerator) -> None:
        """Record the active-rank shape of an agglomerated solve.

        One gauge per level: how many ranks computed it, plus the
        merged per-rank point count — the structural facts behind any
        drop in the per-level message counters.
        """
        plan = agglomerator.plan
        for lev in range(plan.num_levels):
            self.gauge(
                f"agglomeration.level{lev}.active_ranks",
                plan.active_count(lev),
            )
            cells = plan.level_cells(lev)
            self.gauge(
                f"agglomeration.level{lev}.points_per_rank",
                cells[0] * cells[1] * cells[2],
            )
        self.gauge(
            "agglomeration.threshold_points", plan.threshold_points
        )

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """One exportable view: ``{"counters": {...}, "gauges": {...}}``.

        Counter values that are whole numbers export as ints so JSON
        artifacts stay diff-friendly.
        """

        def _tidy(v: float):
            return int(v) if float(v).is_integer() else v

        return {
            "counters": {
                k: _tidy(v) for k, v in sorted(self._counters.items())
            },
            "gauges": {k: _tidy(v) for k, v in sorted(self._gauges.items())},
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)})"
        )


def solve_metrics(
    recorder: Recorder, tracer=None, agglomerator=None, result=None,
    exchangers=(),
) -> MetricsRegistry:
    """Registry for one finished solve.

    Bridges the recorder and, when a recording tracer is supplied, adds
    trace-derived gauges (span counts and total traced wall-clock); an
    agglomerated solve additionally reports its active-rank shape, a
    :class:`~repro.gmg.solver.SolveResult` adds the rank-crash
    recovery gauges, and ``exchangers``
    (:meth:`GMGSolver.halo_exchangers`) the exchange-path tallies.
    """
    registry = MetricsRegistry()
    registry.observe_recorder(recorder)
    registry.observe_plan_caches()
    registry.observe_native_kernels()
    registry.observe_exchange_paths(exchangers)
    if tracer is not None and getattr(tracer, "enabled", False):
        registry.gauge("trace.spans", len(tracer.spans))
        registry.gauge("trace.instants", len(tracer.instants))
        registry.gauge("trace.wallclock_s", tracer.total_time())
    if agglomerator is not None:
        registry.observe_agglomeration(agglomerator)
    if result is not None:
        registry.observe_recovery(result)
    return registry
