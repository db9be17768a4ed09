"""Solve requests, results, and the standalone reference path.

A :class:`SolveRequest` is one tenant's problem: a full
:class:`~repro.gmg.solver.SolverConfig` plus a right-hand-side
amplitude.  Scaling the model problem's analytic RHS keeps it zero-mean
(solvable under periodic/Neumann boundaries) while changing the
residual magnitudes — so different amplitudes converge in different
cycle counts, which is what exercises the cohort's staggered
retirement.

Two requests can share a cohort iff they share a :func:`geometry_key`:
every config field that shapes the level hierarchies, exchange
schedule and kernels — everything except the per-request convergence
controls ``tol`` and ``max_vcycles``.

:func:`standalone_solve` is the reference the bit-identity suite (and
the load generator's sequential baseline) compares the cohort against:
one ordinary :class:`~repro.gmg.solver.GMGSolver` per request, its
right-hand side written by the call a cohort admission makes
(:meth:`~repro.gmg.solver.Hierarchy.set_rhs`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields

import numpy as np

from repro.gmg.solver import GMGSolver, SolveResult, SolverConfig

#: config fields excluded from the cohort grouping key: per-request
#: convergence controls that do not change the geometry or schedule
_NON_GEOMETRY_FIELDS = ("tol", "max_vcycles")

_request_counter = itertools.count()


def geometry_key(config: SolverConfig) -> tuple:
    """The cohort grouping key of ``config``.

    Two configs with equal keys build congruent hierarchies, exchange
    schedules and kernels, so their requests can stack onto one batched
    index space; ``tol``/``max_vcycles`` stay per-request.
    """
    return tuple(
        (f.name, getattr(config, f.name))
        for f in fields(config)
        if f.name not in _NON_GEOMETRY_FIELDS
    )


@dataclass(frozen=True)
class SolveRequest:
    """One tenant's solve: a config plus an RHS amplitude.

    ``amplitude`` scales the model problem's analytic right-hand side
    (``amplitude * rhs_field``); ``request_id`` defaults to a unique
    ``req-N`` label.  ``tol``/``max_vcycles`` come from ``config`` and
    are honoured per request inside a cohort.
    """

    config: SolverConfig
    amplitude: float = 1.0
    request_id: str = ""

    def __post_init__(self) -> None:
        if not np.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite: {self.amplitude}")
        if not self.request_id:
            object.__setattr__(
                self, "request_id", f"req-{next(_request_counter)}"
            )

    @property
    def geometry_key(self) -> tuple:
        return geometry_key(self.config)


@dataclass
class RequestResult:
    """Outcome of one request, standalone or cohort-solved.

    ``residual_history``/``num_vcycles``/``converged`` follow the
    :class:`~repro.gmg.solver.SolveResult` conventions exactly (the
    identity suite compares them element-wise).  ``solution`` is the
    assembled global finest-level iterate.  The latency fields are
    filled by the service/load-generator layers (seconds on their
    clock; zero when untimed).
    """

    request: SolveRequest
    converged: bool
    num_vcycles: int
    residual_history: list[float]
    solution: np.ndarray = field(repr=False, default=None)
    #: slot the request occupied in its cohort (-1 standalone)
    slot: int = -1
    #: cohort cycle index at which the request joined (-1 standalone)
    joined_at_cycle: int = -1
    arrival_s: float = 0.0
    completed_s: float = 0.0

    @property
    def latency_s(self) -> float:
        return self.completed_s - self.arrival_s

    @property
    def final_residual(self) -> float:
        if not self.residual_history:
            return float("nan")
        return self.residual_history[-1]


def standalone_solve(request: SolveRequest, tracer=None) -> RequestResult:
    """Solve ``request`` alone with an ordinary :class:`GMGSolver`.

    The bit-identity reference: a request solved inside any cohort must
    reproduce this result's residual history and solution exactly.
    """
    solver = GMGSolver(request.config, tracer=tracer)
    # construction wrote the amplitude-1 RHS; rewrite its interior
    solver.set_rhs(request.amplitude)
    result: SolveResult = solver.solve()
    return RequestResult(
        request=request,
        converged=result.converged,
        num_vcycles=result.num_vcycles,
        residual_history=list(result.residual_history),
        solution=solver.solution(),
    )
