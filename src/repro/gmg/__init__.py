"""Geometric multigrid core: the paper's primary contribution.

Public entry points:

* :class:`~repro.gmg.solver.GMGSolver` / :class:`~repro.gmg.solver.SolverConfig`
  — the brick-based solver (single- or multi-rank over simulated MPI);
* :class:`~repro.gmg.baseline.ArrayGMG` — the HPGMG-style conventional
  layout baseline of Figure 4;
* :mod:`~repro.gmg.operators` — the five V-cycle operations;
* :mod:`~repro.gmg.problem` — the Section IV-C model problem.
"""

from repro.gmg.agglomerate import (
    AgglomerationPlan,
    AgglomerationTransfer,
    Agglomerator,
)
from repro.gmg.baseline import ArrayGMG
from repro.gmg.boundary import BoundaryCondition, BoundaryFill
from repro.gmg.bottom import (
    BOTTOM_SOLVERS,
    BottomSolver,
    ConjugateGradientBottomSolver,
    FFTBottomSolver,
    RelaxationBottomSolver,
    make_bottom_solver,
)
from repro.gmg.level import Level, level_brick_dim, make_level
from repro.gmg.problem import (
    CONVERGENCE_TOL,
    LevelConstants,
    continuum_solution,
    discrete_operator_eigenvalue,
    discrete_solution,
    rhs_field,
)
from repro.gmg.mixed import MixedPrecisionSolver, MixedSolveResult
from repro.gmg.varcoef import VariableCoefficientSolver
from repro.gmg.smoothers import (
    SMOOTHERS,
    ChebyshevSmoother,
    JacobiSmoother,
    RedBlackGaussSeidelSmoother,
    Smoother,
    SORSmoother,
    make_smoother,
)
from repro.gmg.solver import GMGSolver, Hierarchy, SolveResult, SolverConfig
from repro.gmg.vcycle import VCycle

__all__ = [
    "GMGSolver",
    "Hierarchy",
    "BoundaryCondition",
    "BoundaryFill",
    "VariableCoefficientSolver",
    "MixedPrecisionSolver",
    "MixedSolveResult",
    "Smoother",
    "JacobiSmoother",
    "RedBlackGaussSeidelSmoother",
    "SORSmoother",
    "ChebyshevSmoother",
    "SMOOTHERS",
    "make_smoother",
    "BottomSolver",
    "RelaxationBottomSolver",
    "ConjugateGradientBottomSolver",
    "FFTBottomSolver",
    "BOTTOM_SOLVERS",
    "make_bottom_solver",
    "SolverConfig",
    "SolveResult",
    "VCycle",
    "Level",
    "level_brick_dim",
    "make_level",
    "AgglomerationPlan",
    "Agglomerator",
    "AgglomerationTransfer",
    "ArrayGMG",
    "LevelConstants",
    "rhs_field",
    "discrete_solution",
    "discrete_operator_eigenvalue",
    "continuum_solution",
    "CONVERGENCE_TOL",
]
