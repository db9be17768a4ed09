"""The multi-tenant solve front-end: geometry-keyed cohort cache.

:class:`SolveService` accepts independent :class:`SolveRequest`\\ s,
groups them by :func:`~repro.service.request.geometry_key`, and runs
each group through a cached :class:`~repro.service.cohort.CohortSolver`
— the expensive part (the hierarchy, its exchangers and stacked storage,
and the geometry-keyed plan caches underneath) is built once per geometry
class and reused across submissions, which is the whole point of a
long-lived service process.

Long-lived-process hygiene, exercised here and fixed alongside:

* plan caches key by geometry (bounded LRU), so cohort
  members share index tables instead of rebuilding per grid object;
* the service's :class:`~repro.obs.metrics.MetricsRegistry` lives for
  the process, with owner-scoped registration so per-cohort observers
  re-register idempotently;
* each cohort traces into its own :meth:`~repro.obs.tracer.Tracer.fork`
  timeline, so interleaved solves export cleanly to Chrome traces.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.service.cohort import CohortSolver
from repro.service.request import RequestResult, SolveRequest


class SolveService:
    """Accepts solve requests; batches same-geometry requests together.

    Parameters
    ----------
    capacity:
        Slots per cohort — the maximum number of requests advanced by
        one batched V-cycle.
    tracer:
        Optional tracer; each cohort records into its own fork
        timeline (``cohort-<n>``).
    registry:
        Optional long-lived :class:`MetricsRegistry`; created if
        omitted.  Per-cohort gauges register under the ``service``
        owner so repeated submissions stay idempotent.
    """

    def __init__(self, capacity: int = 8, tracer=None, registry=None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.capacity = int(capacity)
        self.tracer = tracer or NULL_TRACER
        self.registry = registry if registry is not None else MetricsRegistry()
        #: geometry_key -> cohort; the plan/workspace cache
        self._cohorts: dict[tuple, CohortSolver] = {}
        self._cohort_seq = 0
        self.requests_served = 0

    # ------------------------------------------------------------------
    def cohort_for(self, request: SolveRequest) -> CohortSolver:
        """The (cached) cohort serving ``request``'s geometry class."""
        key = request.geometry_key
        cohort = self._cohorts.get(key)
        if cohort is None:
            label = f"cohort-{self._cohort_seq}"
            self._cohort_seq += 1
            cohort = CohortSolver(
                request.config,
                capacity=self.capacity,
                tracer=self.tracer.fork(label),
            )
            self._cohorts[key] = cohort
            self.registry.counter("service.cohorts_built", owner="service")
        else:
            self.registry.counter("service.cohort_cache_hits", owner="service")
        return cohort

    @property
    def num_cohorts(self) -> int:
        return len(self._cohorts)

    # ------------------------------------------------------------------
    def submit(
        self, requests, arrivals=None, clock=None
    ) -> list[RequestResult]:
        """Solve a batch/stream of requests; returns results in
        retirement order (grouped by geometry class).

        ``arrivals`` (optional, parallel to ``requests``) makes the
        stream open-loop: request ``i`` joins its cohort no earlier
        than ``arrivals[i]`` seconds after its group starts.
        """
        requests = list(requests)
        arrivals = list(arrivals) if arrivals is not None else [0.0] * len(requests)
        if len(arrivals) != len(requests):
            raise ValueError("need one arrival offset per request")
        groups: dict[tuple, list[int]] = {}
        for k, request in enumerate(requests):
            groups.setdefault(request.geometry_key, []).append(k)
        results: list[RequestResult] = []
        for key, indices in groups.items():
            cohort = self.cohort_for(requests[indices[0]])
            results.extend(
                cohort.solve_stream(
                    [requests[k] for k in indices],
                    arrivals=[arrivals[k] for k in indices],
                    clock=clock,
                )
            )
            self._observe_cohort(cohort)
        self.requests_served += len(requests)
        self.registry.counter(
            "service.requests", len(requests), owner="service"
        )
        return results

    def _observe_cohort(self, cohort: CohortSolver) -> None:
        """Fold one cohort's shape into the service registry (gauges,
        owner-scoped: last submission wins, as a point-in-time view)."""
        reg = self.registry
        reg.gauge("service.cohort.capacity", cohort.capacity, owner="service")
        reg.gauge(
            "service.cohort.cycles_run", cohort.cycles_run, owner="service"
        )
        reg.gauge(
            "service.cohort.requests_retired",
            cohort.requests_retired,
            owner="service",
        )
        reg.gauge(
            "service.cohort.occupancy", cohort.occupancy(), owner="service"
        )
        reg.observe_plan_caches()
        reg.observe_native_kernels()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SolveService(capacity={self.capacity}, "
            f"cohorts={self.num_cohorts}, served={self.requests_served})"
        )
