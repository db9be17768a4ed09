"""Batched multi-request execution: N solves under one V-cycle driver.

A :class:`CohortSolver` owns ``capacity`` *member* hierarchies of one
geometry class and drives them with a single unmodified
:class:`~repro.gmg.vcycle.VCycle` over the concatenated per-rank level
lists — requests and ranks are the same stacking axis of the engine's
index space:

* **compute** batches across requests: the cohort
  :class:`~repro.gmg.engine.ExecutionEngine` stacks all members' level
  groups onto one :class:`~repro.bricks.batch.BatchedGrid` of
  ``capacity * num_ranks`` blocks, so a smoothing iteration is one
  kernel call over the whole cohort;
* **communication** batches the same way: a member is one more copy
  of the decomposition on the stacking axis, so the driver hands the
  whole cohort's ``fields_by_rank`` to member 0's
  :class:`~repro.comm.exchange.HaloExchange`, which copies every
  member's ghosts in one pass over the stacked storage (or exchanges
  envelopes member by member) — each member's ghosts are the bytes a
  standalone solve moves, and member 0's recorder and communicator
  account the plan's messages once per member;
* **convergence** is per request: :class:`CohortCycle` mirrors
  ``max_norm_residual`` but reduces per member slot, reproducing each
  member's allreduce semantics bit-exactly.

Identity argument: every kernel is elementwise (or adjacency-gathered)
per brick slot and the batched adjacency is block-diagonal, so no
operation mixes slots of different members; idle slots hold exact
zeros, which smoothing, restriction and bottom relaxation all map to
zero.  A request therefore sees the same floats whether it shares the
cohort with 0 or N-1 neighbours — asserted by the bit-identity suite.

Requests retire individually when their residual test passes (or their
cycle budget is exhausted) and new requests join at cycle boundaries:
the freed slot's fields are zeroed through the adopted views and the
joiner's RHS is written exactly as a fresh solver's constructor would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gmg.engine import ExecutionEngine
from repro.gmg.solver import Hierarchy, SolverConfig
from repro.gmg.vcycle import VCycle
from repro.obs.tracer import NULL_TRACER
from repro.service.request import RequestResult, SolveRequest, apply_rhs
from repro.service.request import geometry_key as _geometry_key


class _FanoutTransfer:
    """Agglomeration gather/scatter fanned out across members."""

    def __init__(self, delegates) -> None:
        self.delegates = list(delegates)

    def gather(self) -> None:
        for delegate in self.delegates:
            delegate.gather()

    def scatter(self) -> None:
        for delegate in self.delegates:
            delegate.scatter()


class CohortAgglomerator:
    """N members' agglomerators presented as one, to the unmodified
    V-cycle driver.

    Implements exactly the surface :class:`~repro.gmg.vcycle.VCycle`
    consumes — ``plan``, ``levels_at``, ``ranks_at``, ``exchanger_at``,
    ``transfer_at``, ``staging_levels``, ``canonical_restriction``,
    ``channels`` — by concatenating (levels, staging) or fanning out
    (transfers) across the members; exchanges go through member 0's
    active-rank exchangers, which serve every member's copy in one
    call.  All members share one config, hence one agglomeration plan.
    """

    def __init__(self, member_aggs, ranks_per_member: int) -> None:
        self.members = list(member_aggs)
        self.plan = self.members[0].plan
        self.ranks_per_member = int(ranks_per_member)
        num_levels = self.plan.num_levels
        self._transfers = []
        #: staging levels per depth, concatenated across members
        self.staging_levels: list[list | None] = []
        for lev in range(num_levels):
            trs = [a.transfer_at(lev) for a in self.members]
            self._transfers.append(
                None if trs[0] is None else _FanoutTransfer(trs)
            )
            per = [a.staging_levels[lev] for a in self.members]
            self.staging_levels.append(
                None
                if per[0] is None
                else [stage for member in per for stage in member]
            )

    @property
    def active(self) -> bool:
        return True

    def levels_at(self, lev: int):
        merged = [a.levels_at(lev) for a in self.members]
        if merged[0] is None:
            return None
        return [lv for member in merged for lv in member]

    def ranks_at(self, lev: int):
        """Global cohort slot ids: member ``m``'s rank ``r`` is slot
        ``m * ranks_per_member + r``."""
        active = [a.ranks_at(lev) for a in self.members]
        if active[0] is None:
            return None
        return [
            m * self.ranks_per_member + r
            for m, member in enumerate(active)
            for r in member
        ]

    def exchanger_at(self, lev: int):
        return self.members[0].exchanger_at(lev)

    def transfer_at(self, lev: int):
        return self._transfers[lev]

    def canonical_restriction(
        self, lev: int, fine_levels, coarse_levels, recorder
    ) -> None:
        """Split the concatenated level lists per member and delegate
        (the canonical per-rank association is a member-local fact)."""
        n = len(self.members)
        fine_n = len(fine_levels) // n
        coarse_n = len(coarse_levels) // n
        for m, agg in enumerate(self.members):
            agg.canonical_restriction(
                lev,
                fine_levels[m * fine_n : (m + 1) * fine_n],
                coarse_levels[m * coarse_n : (m + 1) * coarse_n],
                recorder,
            )

    def channels(self):
        return [ch for a in self.members for ch in a.channels()]


class CohortCycle(VCycle):
    """A V-cycle over a cohort, with per-member residual reductions."""

    def __init__(self, num_members: int, *args, **kwargs) -> None:
        self.num_members = int(num_members)
        super().__init__(*args, **kwargs)

    def member_residuals(self) -> list[float]:
        """Finest-level residual max-norm of every member slot.

        Mirrors :meth:`VCycle.max_norm_residual` — same residual pass,
        same per-level local maxima — but reduces each member's locals
        separately with ``float(np.max(...))``, which is bit-identical
        to both the single-rank default reduction and
        ``SimComm.allreduce_max``.
        """
        with self.tracer.span("residual-check", v=self.cycles_run):
            levels = self._residual_pass()
            stacked = self.engine.stacked_level(0)
            # one reduction over the stacked residual: each block row is
            # exactly one level's interior element set, and max is
            # order-independent, so the per-block maxima match the
            # per-level ``max_abs_interior`` calls bit-for-bit
            vals = np.abs(stacked.r.data[stacked.grid.interior_slots])
            local = vals.reshape(len(levels), -1).max(axis=1)
            if self.recorder is not None:
                self.recorder.reduction()
            per = len(local) // self.num_members
            return [
                float(np.max(local[m * per : (m + 1) * per]))
                for m in range(self.num_members)
            ]


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
    """``capacity`` member solver hierarchies under one batched driver.

    Construction is the expensive, reusable part (the service caches
    cohorts by geometry key): member hierarchies, exchangers, the
    cohort engine adoption and the V-cycle driver are all built once;
    requests then stream through slots with per-slot state resets only.

    Restrictions: the ``cg``/``fft`` bottom solvers reduce over the
    driver's whole index space and would mix requests — cohorts require
    the paper-default ``relaxation`` bottom (no cross-slot reductions).
    Fault injection/resilience are standalone-solver features.
    """

    def __init__(
        self,
        config: SolverConfig,
        capacity: int,
        tracer=None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive: {capacity}")
        if config.bottom_solver != "relaxation":
            raise ValueError(
                f"cohorts require the 'relaxation' bottom solver; "
                f"{config.bottom_solver!r} reduces across the batched index "
                "space and would couple independent requests"
            )
        self.config = config
        self.capacity = int(capacity)
        self.tracer = tracer or NULL_TRACER
        self.geometry_key = _geometry_key(config)
        # members are hierarchies only; the one cohort engine adopts
        # them all, so requests stack exactly like ranks
        with self.tracer.span("cohort-build", capacity=self.capacity):
            self.members = [
                Hierarchy(config, tracer=self.tracer)
                for _ in range(self.capacity)
            ]
        first = self.members[0]
        self.num_ranks = first.topology.size
        num_levels = config.num_levels

        self.agglomerator = None
        if first.agglomerator is not None:
            self.agglomerator = CohortAgglomerator(
                [m.agglomerator for m in self.members], self.num_ranks
            )

        # request-axis level groups: the members' compute groups
        # concatenated, member m's rank r owning cohort slot
        # m * num_ranks + r
        groups = [member.compute_groups() for member in self.members]
        self.engine = ExecutionEngine(
            [
                [lv for levels, _ in groups for lv in levels[lev]]
                for lev in range(num_levels)
            ],
            [
                [
                    m * self.num_ranks + r
                    for m, (_, ranks) in enumerate(groups)
                    for r in ranks[lev]
                ]
                for lev in range(num_levels)
            ],
            tracer=self.tracer,
        )
        rank_levels = [
            levels for member in self.members for levels in member.rank_levels
        ]

        from repro.gmg.bottom import make_bottom_solver
        from repro.gmg.smoothers import make_smoother

        bottom_kwargs = dict(config.bottom_options)
        if "iterations" not in bottom_kwargs:
            bottom_kwargs["iterations"] = config.bottom_smooths
        self.vcycle = CohortCycle(
            self.capacity,
            rank_levels,
            # every member is one more copy of the decomposition
            first.exchangers,
            max_smooths=config.max_smooths,
            bottom_smooths=config.bottom_smooths,
            communication_avoiding=config.communication_avoiding,
            recorder=first.recorder,
            smoother=make_smoother(
                config.smoother, **dict(config.smoother_options)
            ),
            bottom_solver=make_bottom_solver("relaxation", **bottom_kwargs),
            cycle=config.cycle,
            topology=first.topology,
            engine=self.engine,
            tracer=self.tracer,
            agglomerator=self.agglomerator,
        )
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
        # construction initialised every member's RHS (amplitude 1);
        # slots must start empty — idle slots hold exact zeros
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

    def _reset_slot(self, slot: int) -> None:
        """Zero every field of the member's hierarchy, through the
        adopted views — after this the slot is numerically identical to
        a freshly constructed (pre-RHS) member."""
        member = self.members[slot]
        seen: set[int] = set()

        def _zero(lv) -> None:
            if id(lv) in seen:
                return
            seen.add(id(lv))
            for f in lv.fields().values():
                f.data[...] = 0.0

        for levels in member.rank_levels:
            for lv in levels:
                _zero(lv)
        agg = member.agglomerator
        if agg is not None:
            for lev in range(self.config.num_levels):
                merged = agg.levels_at(lev)
                for lv in merged or ():
                    _zero(lv)
                for lv in agg.staging_levels[lev] or ():
                    _zero(lv)

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
        self._forget_history(slot)
        apply_rhs(self.members[slot], request.amplitude)
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

    def _forget_history(self, slot: int) -> None:
        """Drop what the slot's previous occupants left in per-event
        logs, so a long-lived cohort's memory does not grow with the
        requests it has served.

        Member 0's recorder is the driver's and logs every kernel and
        every member's messages; nothing reads a cohort's recorders, so
        a slot's log restarts with its next request.  Slot 0 is the
        first to be refilled and no request outlives ``max_vcycles``
        cycles, which bounds the driver's log too.
        """
        self.members[slot].recorder.clear()
        samples = self.occupancy_samples
        if len(samples) >= 2 * OCCUPANCY_WINDOW:
            del samples[:-OCCUPANCY_WINDOW]

    def seed(self, slots) -> list[RequestResult]:
        """Record joiners' initial residuals (``history[0]``).

        One cohort-wide residual pass; only the named slots harvest an
        entry.  For members mid-solve the pass is numerically idempotent
        — it re-exchanges unchanged interiors and recomputes ``Ax``/``r``
        from unchanged ``x``/``b`` — so their trajectories are
        unperturbed and their histories untouched.  Requests whose
        initial residual already passes their test retire immediately
        (mirroring a standalone solve that runs zero cycles).
        """
        residuals = self.vcycle.member_residuals()
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
        residuals = self.vcycle.member_residuals()
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
            solution=self.members[slot].solution(),
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
        closed batch).  Requests join at cycle boundaries as slots free
        up; the returned results carry arrival/completion stamps on
        ``clock`` for latency accounting.  Results are in retirement
        order.
        """
        import time as _time

        clock = clock or _time.perf_counter
        pending = list(zip(requests, arrivals or [0.0] * len(requests)))
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
        for member in self.members:
            member.comm.assert_drained()
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
