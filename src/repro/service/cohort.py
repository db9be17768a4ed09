"""Batched multi-request execution: N solves under one V-cycle driver.

A :class:`CohortSolver` is one :class:`~repro.gmg.solver.Hierarchy`
with ``copies = capacity`` — requests are further copies of the
decomposition on each level's stacking axis, exactly as ranks are —
driven the way :class:`~repro.gmg.solver.GMGSolver` drives a single
copy; what this module adds is slot bookkeeping:

* **compute** batches across requests: each depth's level stacks
  ``capacity * num_ranks`` blocks, so a smoothing iteration is one
  kernel call over the whole cohort;
* **communication** batches the same way: the hierarchy's one
  :class:`~repro.comm.exchange.HaloExchange` per level copies every
  copy's ghosts in one pass over the stacked storage (posting any
  headers copy by copy), and its one recorder and communicator
  account the plan's messages once per copy;
* **convergence** is per request:
  :meth:`~repro.gmg.vcycle.VCycle.residual_norms` reduces each copy's
  residual separately, reproducing a standalone solve's allreduce
  bit-exactly.

Identity argument: every kernel is elementwise (or adjacency-gathered)
per brick slot and the batched adjacency is block-diagonal, so no
operation mixes slots of different copies; idle slots hold exact
zeros, which smoothing, restriction and bottom relaxation all map to
zero.  A request therefore sees the same floats whether it shares the
cohort with 0 or N-1 neighbours — asserted by the bit-identity suite.

Requests retire individually when their residual test passes (or their
cycle budget is exhausted) and new requests join at cycle boundaries:
the freed slot's fields are zeroed in the stacked storage and the
joiner's RHS is written exactly as a fresh solver's constructor would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gmg.solver import Hierarchy, SolverConfig
from repro.obs.tracer import NULL_TRACER
from repro.service.request import RequestResult, SolveRequest
from repro.service.request import geometry_key as _geometry_key

#: most recent occupancy samples a cohort keeps.  The list is trimmed to
#: this length once it reaches twice it, so it stays bounded however
#: long the service lives; :meth:`CohortSolver.occupancy` reads running
#: totals, not the list.
OCCUPANCY_WINDOW = 4096


@dataclass
class _ActiveRequest:
    """Book-keeping for one request occupying a cohort slot."""

    request: SolveRequest
    slot: int
    history: list[float] = field(default_factory=list)
    joined_at_cycle: int = 0
    arrival_s: float = 0.0


class CohortSolver:
    """One ``capacity``-copy hierarchy under one batched driver.

    Construction is the expensive, reusable part (the service caches
    cohorts by geometry key): the hierarchy (its exchangers and stacked
    storage included) and the V-cycle driver are built once; requests
    then stream through slots (slot ``k`` is copy ``k``) with per-slot
    state resets only.

    Restrictions are the hierarchy's (``copies > 1``): the ``cg``/
    ``fft`` bottom solvers reduce over the driver's whole index space
    and would mix requests, and fault injection/resilience recover per
    communicator — both are standalone-solver features.
    """

    def __init__(
        self,
        config: SolverConfig,
        capacity: int,
        tracer=None,
    ) -> None:
        self.config = config
        self.capacity = int(capacity)
        self.tracer = tracer or NULL_TRACER
        self.geometry_key = _geometry_key(config)
        with self.tracer.span("cohort-build", capacity=self.capacity):
            self.hierarchy = Hierarchy(
                config, tracer=self.tracer, copies=self.capacity
            )
        self.vcycle = self.hierarchy.make_vcycle()
        #: slot -> _ActiveRequest
        self._active: dict[int, _ActiveRequest] = {}
        self._free: list[int] = list(range(self.capacity))
        #: the latest (cycle, active_count) samples, for consumers that
        #: mark ``len()`` before a pass and slice after it; bounded by
        #: :data:`OCCUPANCY_WINDOW`
        self.occupancy_samples: list[tuple[int, int]] = []
        #: cycles sampled and active slots summed over them, ever
        self._occupancy_cycles = 0
        self._occupancy_active = 0
        self.requests_retired = 0
        # construction wrote every copy's RHS (amplitude 1); slots
        # must start empty — idle slots hold exact zeros
        for slot in range(self.capacity):
            self._reset_slot(slot)

    @property
    def free_slots(self) -> int:
        return len(self._free)

    @property
    def active_count(self) -> int:
        return len(self._active)

    @property
    def cycles_run(self) -> int:
        return self.vcycle.cycles_run

    def _slot_storage(self, slot: int):
        """Every array holding slot ``slot``'s state: its contiguous
        block rows of every field of each depth's compute level and of
        each transition's staging level."""
        agg = self.hierarchy.agglomerator
        staging = [] if agg is None else agg.staging_levels
        computed = [self.vcycle.level_at(lev) for lev in range(self.vcycle.num_levels)]
        for level in computed + staging:
            if level is None:
                continue
            rows = level.grid.num_slots // self.capacity
            for f in level.fields().values():
                yield f.data[slot * rows : (slot + 1) * rows]

    def _reset_slot(self, slot: int) -> None:
        """Zero the slot's state — after this it is numerically
        identical to a freshly constructed (pre-RHS) copy."""
        for data in self._slot_storage(slot):
            data[...] = 0.0

    # ------------------------------------------------------------------
    def admit(self, request: SolveRequest, arrival_s: float = 0.0) -> int:
        """Place ``request`` into a free slot (RHS written in place).

        Call :meth:`seed` with the returned slots before cycling so the
        joiners record their initial residuals.
        """
        if request.geometry_key != self.geometry_key:
            raise ValueError(
                f"request {request.request_id} has a different geometry key "
                "than this cohort"
            )
        if not self._free:
            raise RuntimeError("cohort is full")
        slot = self._free.pop(0)
        self._forget_history()
        self.hierarchy.set_rhs(request.amplitude, copy=slot)
        self._active[slot] = _ActiveRequest(
            request=request,
            slot=slot,
            joined_at_cycle=self.vcycle.cycles_run,
            arrival_s=arrival_s,
        )
        self.tracer.instant(
            "service:admit", slot=slot, request=request.request_id
        )
        return slot

    def _forget_history(self) -> None:
        """Restart the per-event logs at an admission, so a long-lived
        cohort's memory does not grow with the requests it has served:
        nothing reads a cohort's recorder, and no request outlives
        ``max_vcycles`` cycles, which bounds what accumulates between
        admissions."""
        self.hierarchy.recorder.clear()
        samples = self.occupancy_samples
        if len(samples) >= 2 * OCCUPANCY_WINDOW:
            del samples[:-OCCUPANCY_WINDOW]

    def seed(self, slots) -> list[RequestResult]:
        """Record joiners' initial residuals (``history[0]``).

        One cohort-wide residual pass; only the named slots harvest an
        entry.  For copies mid-solve the pass is numerically idempotent
        — it re-exchanges unchanged interiors and recomputes ``Ax``/``r``
        from unchanged ``x``/``b`` — so their trajectories are
        unperturbed and their histories untouched.  Requests whose
        initial residual already passes their test retire immediately
        (mirroring a standalone solve that runs zero cycles).
        """
        residuals = self.vcycle.residual_norms()
        retired = []
        for slot in slots:
            active = self._active[slot]
            active.history.append(residuals[slot])
            if self._done(active):
                retired.append(self._retire(slot))
        return retired

    def _done(self, active: _ActiveRequest) -> bool:
        """The standalone solve-loop termination test, per request."""
        config = active.request.config
        return (
            active.history[-1] <= config.tol
            or len(active.history) > config.max_vcycles
        )

    def cycle(self) -> list[RequestResult]:
        """One cohort-wide V-cycle + residual pass; returns retirees."""
        if not self._active:
            return []
        self.occupancy_samples.append(
            (self.vcycle.cycles_run, len(self._active))
        )
        self._occupancy_cycles += 1
        self._occupancy_active += len(self._active)
        self.vcycle.run()
        residuals = self.vcycle.residual_norms()
        retired = []
        for slot in sorted(self._active):
            active = self._active[slot]
            active.history.append(residuals[slot])
            if self._done(active):
                retired.append(self._retire(slot))
        return retired

    def _retire(self, slot: int) -> RequestResult:
        """Snapshot the slot's solution, zero it, and free it."""
        active = self._active.pop(slot)
        config = active.request.config
        result = RequestResult(
            request=active.request,
            converged=active.history[-1] <= config.tol,
            num_vcycles=len(active.history) - 1,
            residual_history=list(active.history),
            solution=self.hierarchy.solution(copy=slot),
            slot=slot,
            joined_at_cycle=active.joined_at_cycle,
            arrival_s=active.arrival_s,
        )
        self._reset_slot(slot)
        self._free.append(slot)
        self._free.sort()
        self.requests_retired += 1
        self.tracer.instant(
            "service:retire",
            slot=slot,
            request=active.request.request_id,
            vcycles=result.num_vcycles,
        )
        return result

    # ------------------------------------------------------------------
    def solve_stream(
        self, requests, arrivals=None, clock=None
    ) -> list[RequestResult]:
        """Run an (optionally open-loop) request stream to completion.

        ``arrivals[i]`` is the offset (seconds on ``clock``) at which
        ``requests[i]`` becomes eligible; omitted arrivals are 0 (a
        closed batch).  Requests join in arrival order (ties in the
        order given) at cycle boundaries as slots free up; the returned
        results carry arrival/completion stamps on ``clock`` for
        latency accounting.  Results are in retirement order.
        """
        import time as _time

        clock = clock or _time.perf_counter
        requests = list(requests)
        arrivals = [0.0] * len(requests) if arrivals is None else list(arrivals)
        if len(arrivals) != len(requests):
            raise ValueError(
                f"need one arrival offset per request: {len(arrivals)} "
                f"arrivals for {len(requests)} requests"
            )
        # stable, so a request never waits behind one due later
        pending = sorted(zip(requests, arrivals), key=lambda pair: pair[1])
        for request, _ in pending:
            if request.geometry_key != self.geometry_key:
                raise ValueError(
                    f"request {request.request_id} does not match this "
                    "cohort's geometry key"
                )
        t0 = clock()
        results: list[RequestResult] = []

        def _finalize(retirees) -> None:
            now = clock() - t0
            for result in retirees:
                result.completed_s = now
                results.append(result)

        with self.tracer.span(
            "cohort-stream", requests=len(pending), capacity=self.capacity
        ):
            while pending or self._active:
                now = clock() - t0
                joined = []
                while pending and self._free and pending[0][1] <= now:
                    request, arrival = pending.pop(0)
                    joined.append(self.admit(request, arrival_s=arrival))
                if joined:
                    _finalize(self.seed(joined))
                if self._active:
                    _finalize(self.cycle())
                # else: open-loop idle gap — spin until the next arrival
        self.hierarchy.comm.assert_drained()
        return results

    def occupancy_totals(self) -> tuple[int, int]:
        """``(cycles sampled, active slots summed over them)`` since
        construction — difference two readings for one pass's mean."""
        return self._occupancy_cycles, self._occupancy_active

    def occupancy(self) -> float:
        """Mean active-slot fraction over the cycles run so far."""
        if not self._occupancy_cycles:
            return 0.0
        return self._occupancy_active / self._occupancy_cycles / self.capacity

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CohortSolver(capacity={self.capacity}, "
            f"active={self.active_count}, cycles={self.cycles_run})"
        )
