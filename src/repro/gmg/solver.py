"""Public solver API: configure, solve, inspect.

A :class:`Hierarchy` assembles what a solve stands on — domain
decomposition, one :class:`~repro.gmg.level.Level` per depth holding
every rank's block, ghost exchangers, simulated MPI, the right-hand
side — from a declarative :class:`SolverConfig`, for one
problem or ``copies`` independent ones (a service cohort);
:class:`GMGSolver` is a one-copy hierarchy under a V-cycle driver: it
runs Algorithm 1 and exposes the assembled global solution plus the
instrumentation record.

Example
-------
>>> from repro.gmg import GMGSolver, SolverConfig
>>> solver = GMGSolver(SolverConfig(global_cells=32, num_levels=3,
...                                 brick_dim=4))
>>> result = solver.solve()
>>> result.converged
True
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.comm.exchange import HaloExchange
from repro.comm.simmpi import SimComm
from repro.comm.topology import CartTopology
from repro.gmg.level import Level, ghost_shell_bricks, level_brick_dim
from repro.gmg.problem import CONVERGENCE_TOL, rhs_field
from repro.gmg.vcycle import VCycle
from repro.instrument import Recorder


@dataclass(frozen=True)
class SolverConfig:
    """Everything that defines one GMG run.

    Defaults mirror the paper's setup scaled to problem size; the paper
    itself runs ``global_cells=1024``, six levels, 12 smooths, 100
    bottom smooths, brick dimension 8 (4 on Sunspot) over 8 ranks.
    """

    global_cells: int = 32
    num_levels: int = 3
    brick_dim: int = 4
    max_smooths: int = 12
    bottom_smooths: int = 100
    tol: float = CONVERGENCE_TOL
    max_vcycles: int = 100
    rank_dims: tuple[int, int, int] = (1, 1, 1)
    ranks_per_node: int = 1
    #: smoother registry name: jacobi (paper) / gsrb / sor / chebyshev
    smoother: str = "jacobi"
    #: keyword arguments for the smoother constructor (e.g. omega)
    smoother_options: tuple = ()
    #: bottom solver registry name: relaxation (paper) / cg / fft
    bottom_solver: str = "relaxation"
    #: keyword arguments for the bottom solver constructor
    bottom_options: tuple = ()
    #: multigrid cycle type: V (paper) / W / F
    cycle: str = "V"
    #: field precision: "fp64" (paper) or "fp32" (mixed-precision inner
    #: solves; see repro.gmg.mixed for the iterative-refinement driver)
    precision: str = "fp64"
    #: domain boundary condition: "periodic" (paper) / "dirichlet" /
    #: "neumann" (homogeneous, cell-centred mirror ghosts)
    boundary: str = "periodic"
    #: coarse-level agglomeration (repro.gmg.agglomerate): when a
    #: level's per-rank subdomain falls below this many points, merge
    #: subdomains onto a factor-of-8-smaller active rank grid.  None
    #: (default) disables agglomeration.  The paper-scale sweet spot is
    #: a few thousand points (the surface-to-volume knee); tiny
    #: thresholds never trigger.
    agglomerate_threshold: int | None = None

    def __post_init__(self) -> None:
        from repro.gmg.bottom import BOTTOM_SOLVERS
        from repro.gmg.smoothers import SMOOTHERS
        from repro.gmg.vcycle import CYCLE_TYPES

        if len(self.rank_dims) != 3 or any(p < 1 for p in self.rank_dims):
            raise ValueError(
                f"rank_dims must be three positive integers: {self.rank_dims!r}"
            )
        for name in ("brick_dim", "max_smooths", "bottom_smooths"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive: {getattr(self, name)}")
        if not self.tol >= 0.0:  # NaN fails every comparison
            raise ValueError(f"tol must be a non-negative number: {self.tol}")
        if self.max_vcycles < 0:
            raise ValueError(f"max_vcycles must be non-negative: {self.max_vcycles}")
        if self.smoother not in SMOOTHERS:
            raise ValueError(
                f"unknown smoother {self.smoother!r}; choose from "
                f"{sorted(SMOOTHERS)}"
            )
        if self.bottom_solver not in BOTTOM_SOLVERS:
            raise ValueError(
                f"unknown bottom solver {self.bottom_solver!r}; choose from "
                f"{sorted(BOTTOM_SOLVERS)}"
            )
        if self.cycle not in CYCLE_TYPES:
            raise ValueError(f"cycle must be one of {CYCLE_TYPES}: {self.cycle!r}")
        if self.precision not in ("fp64", "fp32"):
            raise ValueError(
                f"precision must be 'fp64' or 'fp32': {self.precision!r}"
            )
        if self.boundary not in ("periodic", "dirichlet", "neumann"):
            raise ValueError(
                "boundary must be 'periodic', 'dirichlet' or 'neumann': "
                f"{self.boundary!r}"
            )
        if self.boundary != "periodic" and self.bottom_solver == "fft":
            raise ValueError(
                "the FFT bottom solver diagonalises the periodic operator "
                "only; use 'relaxation' or 'cg' with Dirichlet/Neumann"
            )
        if self.agglomerate_threshold is not None:
            if self.agglomerate_threshold < 1:
                raise ValueError(
                    "agglomerate_threshold must be positive (or None to "
                    f"disable): {self.agglomerate_threshold}"
                )
            if self.bottom_solver in ("cg", "fft"):
                raise ValueError(
                    f"the {self.bottom_solver!r} bottom solver reduces over "
                    "the full communicator and cannot run on an "
                    "agglomerated coarsest level; use 'relaxation' with "
                    "agglomerate_threshold"
                )
        if self.global_cells < 2:
            raise ValueError("global_cells must be at least 2")
        if self.num_levels < 1:
            raise ValueError("num_levels must be at least 1")
        for d, p in enumerate(self.rank_dims):
            if self.global_cells % p:
                raise ValueError(
                    f"rank_dims[{d}]={p} does not divide global_cells="
                    f"{self.global_cells}"
                )
        per_rank = tuple(self.global_cells // p for p in self.rank_dims)
        for lev in range(self.num_levels):
            cells = tuple(c >> lev for c in per_rank)
            if any(c % (1 << lev) for c in per_rank):
                raise ValueError(
                    f"per-rank size {per_rank} not divisible by 2^{lev} "
                    f"for level {lev}"
                )
            if any(s < 1 for s in cells):
                raise ValueError(
                    f"level {lev} would have an empty subdomain: {cells}"
                )

    @property
    def num_ranks(self) -> int:
        p0, p1, p2 = self.rank_dims
        return p0 * p1 * p2

    @property
    def cells_per_rank(self) -> tuple[int, int, int]:
        return tuple(self.global_cells // p for p in self.rank_dims)

    def level_spacing(self, lev: int) -> float:
        """Grid spacing ``h`` at level ``lev``."""
        return (1 << lev) / self.global_cells


@dataclass
class SolveResult:
    """Outcome of :meth:`GMGSolver.solve`.

    ``status`` is one of ``converged`` / ``max_vcycles`` / ``diverged``
    / ``failed_faults`` (see :mod:`repro.faults.recovery`); anomalies
    under fault injection become statuses, never unhandled exceptions.
    ``num_vcycles`` counts the cycles in the committed residual history;
    ``executed_vcycles`` additionally counts work discarded by
    checkpoint rollbacks (equal unless the solve recovered from faults).
    """

    converged: bool
    num_vcycles: int
    residual_history: list[float]
    recorder: Recorder = field(repr=False)
    status: str = ""
    executed_vcycles: int = -1
    rollbacks: int = 0
    #: ranks that crashed and were repaired back into the solve
    recovered_ranks: list[int] = field(default_factory=list)
    #: total wall time spent in rank repair (seconds)
    mttr_s: float = 0.0
    #: bytes of crashed-rank state adopted from buddy replicas
    bytes_restored: int = 0
    #: committed V-cycles discarded by crash recoveries
    cycles_lost: int = 0

    def __post_init__(self) -> None:
        if not self.status:
            self.status = "converged" if self.converged else "max_vcycles"
        if self.executed_vcycles < 0:
            self.executed_vcycles = self.num_vcycles

    @property
    def final_residual(self) -> float:
        """Last committed residual (NaN when the history is empty)."""
        if not self.residual_history:
            return float("nan")
        return self.residual_history[-1]

    @property
    def convergence_factor(self) -> float:
        """Geometric-mean residual reduction per V-cycle.

        1.0 when no cycles ran — including a solve that stopped on the
        initial residual (already below tolerance) — since no reduction
        was performed.  A history whose endpoints are not finite (a
        diverged solve that overflowed to ``inf``/``nan``) has no
        meaningful geometric mean: it reports ``nan`` instead of
        propagating ``(inf / first) ** (1/n)``.
        """
        if self.num_vcycles <= 0 or len(self.residual_history) < 2:
            return 1.0
        first, last = self.residual_history[0], self.residual_history[-1]
        if not (math.isfinite(first) and math.isfinite(last)):
            return float("nan")
        if first <= 0:
            return 0.0
        return (last / first) ** (1.0 / self.num_vcycles)

    @property
    def fault_counts(self) -> dict[str, int]:
        """Injected/detected/recovery fault events by kind (see Recorder)."""
        return self.recorder.fault_counts()


class Hierarchy:
    """One configuration's problem state, every rank stacked per depth.

    Builds, in this order, the decomposition, the simulated
    communicator, one :class:`~repro.gmg.level.Level` per depth
    (``levels``) whose storage holds every rank's block, the per-level
    ghost exchangers (none for one periodic rank, whose levels have no
    ghost shell), the agglomerator (when the threshold merges
    anything), and then the problem data: the finest-level right-hand
    side, written through the level's block views like every later
    per-rank write.  :class:`GMGSolver` drives a hierarchy; so does a
    service cohort, with ``copies=capacity``.

    ``copies`` problems share everything but field storage: each level
    stacks ``copies * topology.size`` blocks (copy ``c``'s rank ``r`` is
    block ``c * size + r``) over one communicator, one recorder, one
    exchanger per level and one agglomerator.  No operation mixes
    blocks, so each copy sees the floats it would alone.

    Parameters
    ----------
    config:
        The :class:`SolverConfig`.
    copies:
        How many independent problems to stack.  More than one excludes
        what reduces or recovers per communicator and would couple them:
        a fault plan, resilience, the ``cg``/``fft`` bottom solvers.
    resilience:
        Optional :class:`~repro.faults.recovery.ResilienceConfig`
        activating the hardened solve path (checksummed exchanges,
        health checks, checkpoint/rollback).  Implied by ``fault_plan``.
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan` of faults to
        inject; anomalies are detected and recovered (or degrade to a
        ``failed_faults`` status) rather than raising.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer` recording
        wall-clock spans for every solve phase (and fault instants).
        Defaults to the shared null tracer — the untraced path is the
        production fast path (the ladder's ``obs.trace_overhead_ratio``
        rung measures what an enabled tracer costs).
    """

    #: the class of every rank's levels; a subclass whose operator reads
    #: more grids names a level type that declares them in ``fields()``
    level_type: type[Level] = Level

    def __init__(
        self,
        config: SolverConfig,
        resilience=None,
        fault_plan=None,
        tracer=None,
        *,
        copies: int = 1,
    ) -> None:
        from repro.gmg.boundary import BoundaryCondition
        from repro.obs.tracer import NULL_TRACER

        if copies < 1:
            raise ValueError(f"copies must be positive: {copies}")
        if copies > 1 and (fault_plan is not None or resilience is not None):
            raise ValueError(
                "fault injection and resilience detect and recover per "
                "communicator: a crash or rollback would take all "
                f"{copies} copies with it; use copies=1"
            )
        if copies > 1 and config.bottom_solver != "relaxation":
            raise ValueError(
                f"stacked copies require the 'relaxation' bottom solver; "
                f"{config.bottom_solver!r} reduces across the whole index "
                "space and would couple independent problems"
            )
        if fault_plan is not None and resilience is None:
            from repro.faults.recovery import ResilienceConfig

            resilience = ResilienceConfig()
        self.config = config
        self.copies = int(copies)
        self.resilience = resilience
        self.tracer = tracer or NULL_TRACER
        self.recorder = Recorder()
        if self.tracer.enabled:
            # fault events mirror into the trace as zero-duration
            # instants inside whatever span was open when they fired
            self.recorder.tracer = self.tracer
        self.injector = None
        if fault_plan is not None and not fault_plan.empty:
            from repro.faults.injector import FaultInjector

            self.injector = FaultInjector(fault_plan, self.recorder)
        self._max_retries = (
            resilience.max_retries if resilience is not None else 3
        )
        self.boundary = BoundaryCondition(config.boundary)
        self.topology = CartTopology(
            config.rank_dims,
            config.ranks_per_node,
            periodic=self.boundary is BoundaryCondition.PERIODIC,
        )
        self.comm = SimComm(self.topology.size)

        per_rank = config.cells_per_rank
        ghost_bricks = ghost_shell_bricks(self.topology.size, self.topology.periodic)
        #: per depth, the level holding every block (copy-major, then rank)
        self.levels: list[Level] = []
        for lev in range(config.num_levels):
            cells = tuple(c >> lev for c in per_rank)
            self.levels.append(
                self.level_type(
                    lev,
                    cells,
                    level_brick_dim(min(cells), config.brick_dim),
                    config.level_spacing(lev),
                    dtype=np.float32 if config.precision == "fp32" else np.float64,
                    ghost_bricks=ghost_bricks,
                    blocks=self.copies * self.topology.size,
                )
            )

        #: per level, its ghost exchanger — ``None`` on a ghostless level
        self.exchangers: list[HaloExchange | None] = [
            self._build_exchanger(lev) for lev in range(config.num_levels)
        ]

        self.buddy = None
        if (
            self.topology.size > 1
            and self.resilience is not None
            and self.resilience.buddy_checkpoints
        ):
            from repro.faults.buddy import BuddyCheckpointer

            self.buddy = BuddyCheckpointer(
                self.comm,
                self.topology,
                recorder=self.recorder,
                injector=self.injector,
                max_retries=self._max_retries,
                tracer=self.tracer,
            )

        self.agglomerator = None
        if config.agglomerate_threshold is not None and self.topology.size > 1:
            from repro.gmg.agglomerate import Agglomerator

            agglomerator = Agglomerator(
                config,
                self.topology,
                self.comm,
                recorder=self.recorder,
                boundary=self.boundary,
                injector=self.injector,
                max_retries=self._max_retries,
                tracer=self.tracer,
                copies=self.copies,
            )
            # a threshold too small to merge anything leaves the
            # schedule untouched (and unpoliced levels un-built)
            if agglomerator.active:
                self.agglomerator = agglomerator
        self._setup_problem()
        if self.injector is not None:
            # A spec that names a rank/level outside this solve, an
            # idled (level, rank) or no message it posts would sit in
            # the plan silently forever — fail at construction instead.
            fault_plan.validate_for(
                config.num_ranks, config.num_levels,
                active_ranks=None if self.agglomerator is None else [
                    self.agglomerator.plan.active_ranks(lev)
                    for lev in range(config.num_levels)
                ],
                message_rows=self._message_rows(),
            )

    def _build_exchanger(self, lev: int) -> HaloExchange | None:
        """A fresh full-grid exchanger for level ``lev`` (``None`` for a
        ghostless level: no shell, nothing to exchange)."""
        grid = self.levels[lev].blocks()[0].grid
        if grid.ghost_bricks == 0:
            return None
        return HaloExchange(
            grid,
            self.topology,
            self.comm,
            self.recorder,
            self.boundary,
            injector=self.injector,
            max_retries=self._max_retries,
            tracer=self.tracer,
        )

    def _message_rows(self) -> list[tuple]:
        """``(level, src, dst, direction)`` of every message this solve
        posts a header for, global ranks — what a message fault can
        strike: the plan messages of the exchanger serving each level
        (none on a communicator of one), the agglomeration transfer
        blocks, the buddy replicas."""
        rows = []
        for lev, ex in enumerate(self.exchangers):
            if self.agglomerator is not None:
                ex = self.agglomerator.exchanger_at(lev) or ex
            if ex is not None and ex.comm.size > 1:
                rows += [
                    (lev, ex._gr(m.src_rank), ex._gr(m.dst_rank), m.direction)
                    for m in ex.plan.messages
                ]
        if self.agglomerator is not None:
            for t in self.agglomerator.transfers:
                for s, o in enumerate([] if t is None else t.owner_of):
                    src, dst = t.source_ranks[s], t.owner_ranks[o]
                    rows += [(t.level_index, src, dst, None),
                             (t.level_index, dst, src, None)]
        if self.buddy is not None:
            rows += [(-1, r, b, None) for r, b in enumerate(self.buddy.buddy_of)]
        return rows

    def halo_exchangers(self) -> list[tuple[int, HaloExchange]]:
        """``(level, exchanger)`` of every ghost exchange: the
        full-grid ones, then the agglomerator's active-rank ones (none
        for a ghostless level)."""
        out = [(lev, ex) for lev, ex in enumerate(self.exchangers) if ex is not None]
        if self.agglomerator is not None:
            out.extend(
                (lev, ex)
                for lev, ex in enumerate(self.agglomerator.exchangers)
                if ex is not None
            )
        return out

    @property
    def rank_levels(self) -> list[list[Level]]:
        """Per block (copy-major, then rank), its view of every depth —
        the per-rank hierarchies as a reader outside the solve walks
        them (the benchmark ladder's per-layer probes do)."""
        views = [level.blocks() for level in self.levels]
        return [list(row) for row in zip(*views)]

    def _copy_blocks(self, copy: int) -> list[Level]:
        """One stacked copy's finest-level block views, in rank order."""
        if not 0 <= copy < self.copies:
            raise ValueError(f"copy {copy} out of range [0, {self.copies})")
        size = self.topology.size
        return self.levels[0].blocks()[copy * size : (copy + 1) * size]

    def _setup_problem(self) -> None:
        """Write the problem's data into the stacked levels: the model
        right-hand side of every copy."""
        for copy in range(self.copies):
            self.set_rhs(copy=copy)

    def set_rhs(self, amplitude: float = 1.0, copy: int = 0) -> None:
        """Write ``amplitude *`` the model problem's right-hand side into
        one copy's finest-level ``b`` (interior slots only: ghosts stay
        as they are).  Multiplying by ``1.0`` is exact."""
        from repro.gmg.problem import rhs_field_dirichlet

        h = self.config.level_spacing(0)
        per_rank = self.config.cells_per_rank
        rhs = rhs_field if self.config.boundary == "periodic" else rhs_field_dirichlet
        for rank, level in enumerate(self._copy_blocks(copy)):
            origin = self.topology.subdomain_origin(rank, per_rank)
            level.b.set_interior(amplitude * rhs(per_rank, h, origin))

    def make_smoother(self):
        """The configured :class:`~repro.gmg.smoothers.Smoother`, which
        also supplies the operator the cycle applies."""
        from repro.gmg.smoothers import make_smoother

        return make_smoother(
            self.config.smoother, **dict(self.config.smoother_options)
        )

    def make_vcycle(self) -> VCycle:
        """The configured cycle driver over this hierarchy."""
        from repro.gmg.bottom import make_bottom_solver

        config = self.config
        bottom_kwargs = dict(config.bottom_options)
        if config.bottom_solver == "relaxation" and "iterations" not in bottom_kwargs:
            bottom_kwargs["iterations"] = config.bottom_smooths
        if config.bottom_solver == "cg" and "project_nullspace" not in bottom_kwargs:
            # the Dirichlet operator is non-singular; periodic/Neumann
            # have the constant nullspace
            bottom_kwargs["project_nullspace"] = config.boundary != "dirichlet"
        return VCycle(
            self.levels,
            self.exchangers,
            max_smooths=config.max_smooths,
            bottom_smooths=config.bottom_smooths,
            recorder=self.recorder,
            smoother=self.make_smoother(),
            bottom_solver=make_bottom_solver(config.bottom_solver, **bottom_kwargs),
            cycle=config.cycle,
            allreduce_max=self.comm.allreduce_max,
            allreduce_sum=self.comm.allreduce_sum,
            topology=self.topology,
            fault_injector=self.injector,
            tracer=self.tracer,
            agglomerator=self.agglomerator,
            copies=self.copies,
        )

    def _subdomains(self, copy: int = 0):
        """``(finest level, its window of the global grid)`` per rank of
        one copy."""
        per_rank = self.config.cells_per_rank
        for rank, level in enumerate(self._copy_blocks(copy)):
            origin = self.topology.subdomain_origin(rank, per_rank)
            yield level, tuple(
                slice(o, o + n) for o, n in zip(origin, per_rank)
            )

    def _assemble(self, name: str, copy: int = 0) -> np.ndarray:
        """One copy's global finest-level field ``name``, dense."""
        N = self.config.global_cells
        out = np.empty((N, N, N), dtype=np.float64)
        for level, window in self._subdomains(copy):
            out[window] = getattr(level, name).to_ijk()
        return out

    def solution(self, copy: int = 0) -> np.ndarray:
        """Assemble one copy's global finest-level solution, dense."""
        return self._assemble("x", copy)

    def residual_dense(self) -> np.ndarray:
        """Assemble the global finest-level residual."""
        return self._assemble("r")


class GMGSolver(Hierarchy):
    """Brick-based geometric multigrid on the paper's model problem.

    A :class:`Hierarchy` (same parameters) under a V-cycle driver:
    every depth's ranks are blocks of one level, smoothed with the
    fused stencils through the native kernels where the host has a
    compiler and the NumPy kernels elsewhere.
    """

    def __init__(
        self,
        config: SolverConfig,
        resilience=None,
        fault_plan=None,
        tracer=None,
    ) -> None:
        super().__init__(config, resilience, fault_plan, tracer)
        self.vcycle = self.make_vcycle()

    # ------------------------------------------------------------------
    # rank-crash recovery hooks (called by the ResilientDriver)
    # ------------------------------------------------------------------
    def rebuild_channels(self) -> None:
        """Rebuild the exchange machinery after a communicator repair.

        The full-grid exchangers are rebuilt from scratch (the
        distributed analogue of re-deriving every ``MPI_Datatype`` on
        the repaired communicator); agglomerated channels and the buddy
        checkpointer hold no state a repair invalidates.  Every rebuilt
        piece is a pure function of the unchanged decomposition, so the
        replayed schedule stays bit-identical.
        """
        self.exchangers = [
            self._build_exchanger(lev)
            for lev in range(self.config.num_levels)
        ]
        self.vcycle.exchangers = self.exchangers

    def _restart_state(self) -> None:
        """Deterministically re-initialise the solve for a global restart.

        The model problem's right-hand side is analytic, so a restart
        needs no checkpoint: zero every finest-level field and rebuild
        ``b`` exactly as the constructor did.  Coarse levels are
        scratch re-derived every cycle and need no reset.
        """
        level = self.levels[0]
        for field in (level.x, level.b, level.r, level.Ax):
            field.fill(0.0)
        self.set_rhs()

    # ------------------------------------------------------------------
    def solve(self) -> SolveResult:
        """Run Algorithm 1 to convergence (or ``max_vcycles``).

        With ``resilience``/``fault_plan`` configured, runs the hardened
        detect → retry → rollback → degrade loop instead; the two paths
        perform identical numeric operations when no fault fires, so
        results are bit-identical in the fault-free case.

        The whole call runs inside a root ``solve`` span when a tracer
        is attached (the span tree underneath covers the V-cycles,
        residual checks and every phase inside them).
        """
        with self.tracer.span(
            "solve",
            cells=self.config.global_cells,
            levels=self.config.num_levels,
            ranks=self.config.num_ranks,
        ):
            if self.resilience is None and self.injector is None:
                history = self.vcycle.solve(
                    self.config.tol, self.config.max_vcycles
                )
                self.comm.assert_drained()
                return SolveResult(
                    converged=history[-1] <= self.config.tol,
                    num_vcycles=len(history) - 1,
                    residual_history=history,
                    recorder=self.recorder,
                )
            return self._solve_resilient()

    def _solve_resilient(self) -> SolveResult:
        from repro.faults.recovery import STATUS_FAILED_FAULTS, ResilientDriver

        driver = ResilientDriver(
            self.vcycle,
            self.resilience,
            injector=self.injector,
            recorder=self.recorder,
            comm=self.comm,
            buddy=self.buddy,
            rebuild_channels=self.rebuild_channels,
            restart_state=self._restart_state,
            tracer=self.tracer,
        )
        outcome = driver.solve(self.config.tol, self.config.max_vcycles)
        if outcome.status == STATUS_FAILED_FAULTS:
            # A failed solve may abort mid-exchange; discard the
            # in-flight traffic instead of asserting a clean drain.
            self.comm.reset_in_flight()
        else:
            for ex in self.exchangers:
                if ex is not None:
                    ex.drain_stale()
            if self.agglomerator is not None:
                for channel in self.agglomerator.channels():
                    channel.drain_stale()
            if self.buddy is not None:
                self.buddy.drain_stale()
            self.comm.assert_drained()
        return SolveResult(
            converged=outcome.converged,
            num_vcycles=outcome.clean_vcycles,
            residual_history=outcome.residual_history,
            recorder=self.recorder,
            status=outcome.status,
            executed_vcycles=outcome.executed_vcycles,
            rollbacks=outcome.rollbacks,
            recovered_ranks=list(outcome.recovered_ranks),
            mttr_s=outcome.mttr_s,
            bytes_restored=outcome.bytes_restored,
            cycles_lost=outcome.cycles_lost,
        )


def timed_model(config: SolverConfig, machine, num_vcycles: int):
    """The performance model of ``config``'s solve on a machine.

    Bridges the functional and performance layers: the same
    configuration a :class:`GMGSolver` executes numerically is priced by
    the returned :class:`repro.harness.vcycle_sim.TimedSolve` for any of
    the paper's machines.  Requires a periodic configuration (the
    harness models the paper's experiments).
    """
    from repro.harness.vcycle_sim import TimedSolve, WorkloadConfig

    if config.boundary != "periodic":
        raise ValueError("the performance harness models periodic runs only")
    workload = WorkloadConfig(
        per_rank_cells=config.cells_per_rank,
        num_levels=config.num_levels,
        max_smooths=config.max_smooths,
        bottom_smooths=config.bottom_smooths,
        num_vcycles=num_vcycles,
        rank_dims=config.rank_dims,
        ranks_per_node=config.ranks_per_node,
        ordering="surface-major",
        brick_dim=config.brick_dim,
        precision=config.precision,
    )
    return TimedSolve(machine, workload)


def estimate_solve_time(config: SolverConfig, machine, num_vcycles: int) -> float:
    """Model the wall-clock of ``config`` on a machine (seconds) — e.g.
    "this 1024^3 solve would take ~2.8 s on Perlmutter"."""
    return timed_model(config, machine, num_vcycles).total_solve_time()
