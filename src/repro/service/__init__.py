"""Multi-tenant batched solve service.

Generalises the levels' cross-rank batching axis to N
concurrent solve *requests*: independent right-hand sides over one
geometry class stack block-diagonally onto the batched index space and
advance through fused V-cycles together, each retiring on its own
convergence test — the direct path from "one solver" to a service
(see DESIGN.md "Solve service").

Layers:

* :mod:`repro.service.request` — :class:`SolveRequest` /
  :class:`RequestResult`, the cohort grouping key, and the standalone
  reference solve the identity suite compares against;
* :mod:`repro.service.cohort` — :class:`CohortSolver`: one hierarchy
  of ``capacity`` stacked copies under one V-cycle driver with
  per-request convergence, retirement and cycle-boundary admission;
* :mod:`repro.service.service` — :class:`SolveService`: the
  geometry-keyed cohort cache and request front-end;
* :mod:`repro.service.loadgen` — the synthetic open-loop load
  generator behind ``repro loadgen``.
"""

from repro.service.cohort import CohortSolver
from repro.service.loadgen import LoadgenReport, run_loadgen
from repro.service.request import (
    RequestResult,
    SolveRequest,
    geometry_key,
    standalone_solve,
)
from repro.service.service import SolveService

__all__ = [
    "CohortSolver",
    "LoadgenReport",
    "RequestResult",
    "SolveRequest",
    "SolveService",
    "geometry_key",
    "run_loadgen",
    "standalone_solve",
]
