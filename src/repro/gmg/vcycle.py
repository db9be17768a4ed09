"""The multigrid cycle driver (Algorithms 1 and 2 of the paper).

Runs any number of simulated ranks in lockstep: compute phases run once
over each depth's :class:`~repro.gmg.level.Level`, whose storage holds
every rank's block (and every stacked copy's), communication phases go
through the level's
:class:`~repro.comm.exchange.HaloExchange` — the same exchanger for
one rank, many ranks and a service cohort's stacked copies.

Communication-avoiding smoothing (Section V): the ghost shell is one
brick deep, so one exchange validates ``brick_dim`` halo cells; each
smoothing iteration consumes the smoother's declared number of cells
(one for Jacobi; two for coloured sweeps; ``degree`` for Chebyshev).
A level performs ``ceil(smooths / (depth // cells per iteration))``
exchanges per visit instead of one per smooth; ghost bricks are
updated redundantly and the corruption that creeps inward from the
shell's outer boundary never reaches interior cells within the allowed
iteration count.  The first exchange of each level visit aggregates
``b`` with ``x`` into one message per neighbour (``b``'s ghost stays
valid for the rest of the visit).  A ghostless level (one rank owning
a whole periodic domain: its bricks wrap their own adjacency) has no
exchanger and no halo budget, so each of its visits — the relaxation
bottom solve included — is one window.  Exchanging before every
smooth — HPGMG's schedule, the paper's baseline — is priced by
:mod:`repro.harness.vcycle_sim` and run by
:class:`~repro.gmg.baseline.ArrayGMG`.

Cycle types: the paper evaluates V-cycles; W-cycles (two recursive
coarse visits) and F-cycles (one F visit followed by a V visit) are
provided as the standard extensions.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.comm.exchange import HaloExchange
from repro.gmg import operators as ops
from repro.gmg.bottom import BottomSolver, RelaxationBottomSolver
from repro.gmg.level import Level
from repro.gmg.problem import CONVERGENCE_TOL
from repro.gmg.smoothers import JacobiSmoother, Smoother
from repro.instrument import Recorder
from repro.obs.tracer import NULL_TRACER

CYCLE_TYPES = ("V", "W", "F")


class VCycle:
    """Executes multigrid cycles over a hierarchy of stacked levels.

    Parameters
    ----------
    levels:
        ``levels[lev]`` is the :class:`Level` at depth ``lev`` (0 =
        finest), one block per rank of every stacked copy (copy-major);
        every depth stacks the same number of blocks.
    exchangers:
        One exchanger per level; ``None`` for a ghostless level, which
        has nothing to exchange.
    max_smooths:
        Smoothing iterations per level visit (the paper uses 12).
    bottom_smooths:
        Iterations of the default point-relaxation bottom solver
        (paper: 100); ignored when ``bottom_solver`` is supplied.
    smoother:
        A :class:`~repro.gmg.smoothers.Smoother`; defaults to the
        paper's damped Jacobi.  Its operator is also the convergence
        check's (``apply_op_residual``) and the CG bottom solver's.
    bottom_solver:
        A :class:`~repro.gmg.bottom.BottomSolver`; defaults to
        relaxation with ``bottom_smooths`` iterations.
    cycle:
        ``"V"`` (paper), ``"W"`` or ``"F"``.
    allreduce_max / allreduce_sum:
        Cross-rank reductions (the solvers pass their ``SimComm``'s);
        the defaults reduce a bare driver's values in place.
    topology:
        Optional :class:`~repro.comm.topology.CartTopology` (needed by
        the FFT bottom solver to assemble the global coarse grid).
    copies:
        How many independent problems ``levels`` stacks (copy-major);
        :meth:`residual_norms` reduces each separately.
    """

    def __init__(
        self,
        levels: Sequence[Level],
        exchangers: Sequence[HaloExchange | None],
        max_smooths: int = 12,
        bottom_smooths: int = 100,
        recorder: Recorder | None = None,
        smoother: Smoother | None = None,
        bottom_solver: BottomSolver | None = None,
        cycle: str = "V",
        allreduce_max=None,
        allreduce_sum=None,
        topology=None,
        fault_injector=None,
        tracer=None,
        agglomerator=None,
        copies: int = 1,
    ) -> None:
        if not levels:
            raise ValueError("need at least one level")
        if len({lv.num_blocks for lv in levels}) != 1:
            raise ValueError(
                "every depth must stack the same number of blocks: "
                f"{[lv.num_blocks for lv in levels]}"
            )
        self.levels = list(levels)
        self.num_levels = len(self.levels)
        if len(exchangers) != self.num_levels:
            raise ValueError(
                f"need one exchanger per level: {len(exchangers)} != {self.num_levels}"
            )
        if max_smooths < 1 or bottom_smooths < 1:
            raise ValueError("smooth counts must be positive")
        if cycle not in CYCLE_TYPES:
            raise ValueError(f"cycle must be one of {CYCLE_TYPES}: {cycle!r}")
        self.exchangers = list(exchangers)
        self.max_smooths = int(max_smooths)
        self.bottom_smooths = int(bottom_smooths)
        self.recorder = recorder
        self.smoother = smoother or JacobiSmoother()
        self.bottom_solver = bottom_solver or RelaxationBottomSolver(bottom_smooths)
        self.cycle = cycle
        self.topology = topology
        #: optional FaultInjector poisoning kernel outputs (SDC model)
        self.fault_injector = fault_injector
        self.copies = int(copies)
        #: optional Agglomerator (repro.gmg.agglomerate): below its
        #: threshold, coarse levels compute on merged subdomains owned
        #: by a shrinking active rank grid — bit-identical numerics,
        #: structurally fewer and larger messages
        self.agglomerator = agglomerator
        #: span tracer (repro.obs); the shared null tracer when tracing
        #: is off, so the hot path never branches on "is tracing on?"
        self.tracer = tracer or NULL_TRACER
        self.smoother.tracer = self.tracer
        self.bottom_solver.tracer = self.tracer
        #: cycles executed so far — the ``v`` attribute of vcycle spans
        self.cycles_run = 0
        # NaN-propagating default (np.max) so a poisoned local residual
        # surfaces in the health checks of single-rank runs too.
        self._allreduce_max = allreduce_max or (lambda values: float(np.max(values)))
        self.allreduce_sum = allreduce_sum or (lambda values: sum(values))
        self._validate_ca_budget()

    def _validate_ca_budget(self) -> None:
        """Every level with a ghost shell must grant at least one
        smoothing iteration of halo per exchange (a ghostless level has
        no exchange to budget)."""
        per_iter = self.smoother.ghost_cells_per_iteration
        for lev in range(self.num_levels):
            depth = self.level_at(lev).ghost_depth_cells
            if 0 < depth < per_iter:
                raise ValueError(
                    f"smoother consumes {per_iter} halo cells per iteration "
                    f"but level {lev}'s ghost zone is only {depth} cells deep"
                )

    # ------------------------------------------------------------------
    def level_at(self, lev: int) -> Level:
        """The :class:`Level` that computes depth ``lev``: the
        agglomerator's merged level where it took the depth over, else
        ``levels[lev]``."""
        if self.agglomerator is not None:
            merged = self.agglomerator.level_at(lev)
            if merged is not None:
                return merged
        return self.levels[lev]

    def levels_at(self, lev: int) -> list[Level]:
        """The block views of depth ``lev``'s compute level — one per
        rank normally, one per *active* rank when the agglomerator
        merged the level."""
        return self.level_at(lev).blocks()

    def targets(self, level: Level) -> list[Level]:
        """What one compute phase over ``level`` runs its kernels on: the
        level itself, every block in one call.  The one hook a reference
        schedule overrides (``level.blocks()``: a call per block)."""
        return [level]

    def ranks_at(self, lev: int) -> list[int]:
        """Global rank ids owning the compute levels of ``lev``."""
        if self.agglomerator is not None:
            active = self.agglomerator.ranks_at(lev)
            if active is not None:
                return active
        return list(range(self.levels[0].num_blocks))

    def exchanger_at(self, lev: int):
        """The exchanger serving depth ``lev`` (active-rank scoped on
        agglomerated levels; ``None`` on a ghostless level)."""
        if self.agglomerator is not None:
            ex = self.agglomerator.exchanger_at(lev)
            if ex is not None:
                return ex
        return self.exchangers[lev]

    def exchange(self, lev: int, fields) -> None:
        """Refresh the ghosts of depth ``lev``'s listed (stacked) fields;
        nothing to do on a ghostless level."""
        exchanger = self.exchanger_at(lev)
        if exchanger is not None:
            exchanger.exchange(lev, fields)

    def iterations_per_exchange(self, lev: int) -> int | None:
        """Smoothing iterations one exchange's halo budget supports;
        ``None`` on a ghostless level, whose windows nothing limits."""
        depth = self.level_at(lev).ghost_depth_cells
        if depth == 0:
            return None
        return max(1, depth // self.smoother.ghost_cells_per_iteration)

    def exchanges_per_visit(self, lev: int, smooths: int | None = None) -> int:
        """Exchange phases one level visit performs (model cross-check)."""
        n = self.max_smooths if smooths is None else smooths
        per_window = self.iterations_per_exchange(lev)
        return 0 if per_window is None else math.ceil(n / per_window)

    def smooth_level(self, lev: int, iterations: int, with_residual: bool) -> None:
        """One smoothing visit: CA-scheduled exchanges + iterations.

        The exchange cadence is part of the numerics; the smoother runs
        once over the depth's level, all blocks in one call.  Each
        exchange opens a *window* of as many iterations as its halo
        stays valid for, handed to the smoother in a single
        ``iterate(..., sweeps=window)``.  A ghostless level exchanges
        nothing and runs the whole visit as one window.
        """
        level = self.level_at(lev)
        targets = self.targets(level)
        per_window = self.iterations_per_exchange(lev) or iterations
        fields = [level.x, level.b]
        with self.tracer.span("smooth-visit", l=lev, n=iterations):
            while iterations > 0:
                self.exchange(lev, fields)
                # b's ghost stays valid for the rest of the visit
                fields = [level.x]
                # every iteration this exchange's halo covers, in one
                # smoother call (the blocks are independent until the
                # next exchange)
                window = min(iterations, per_window)
                for target in targets:
                    self.smoother.iterate(
                        target, with_residual, self.recorder, sweeps=window
                    )
                iterations -= window
            if self.fault_injector is not None:
                # Silent-data-corruption model: the smoother "wrote" a bad
                # value into its output field on whichever ranks the plan
                # targets at this (vcycle, level).  Ranks are global ids:
                # on agglomerated levels only the active ranks own state.
                for rank, lv in zip(self.ranks_at(lev), level.blocks()):
                    self.fault_injector.kernel_sdc(lev, rank, lv.x)

    # ------------------------------------------------------------------
    def _transfer_at(self, lev: int):
        if self.agglomerator is None:
            return None
        return self.agglomerator.transfer_at(lev)

    def _init_zero(self, lev: int) -> None:
        """``initZero`` of depth ``lev``: one fill of the level's ``x``
        (every block's storage), recorded once per block."""
        level = self.level_at(lev)
        with self.tracer.span("initZero", l=lev):
            level.x.fill(0.0)
            if self.recorder is not None:
                for lv in level.blocks():
                    self.recorder.kernel(lev, "initZero", lv.num_points)

    def _level_pairs(self, lev: int) -> list:
        """The ``(fine, coarse)`` pairs the inter-grid transfers between
        depths ``lev`` and ``lev + 1`` run over.  The coarse side is the
        agglomerator's staging level where it shrinks the rank grid
        entering ``lev + 1`` (the same blocks as the fine level), else
        the coarse depth's level.  Levels of one brick size pair as
        :meth:`targets` says (one stacked call); otherwise the dense
        path pairs their blocks."""
        fine = self.level_at(lev)
        if self._transfer_at(lev + 1) is not None:
            coarse = self.agglomerator.staging_levels[lev + 1]
        else:
            coarse = self.level_at(lev + 1)
        if fine.grid.brick_dim == coarse.grid.brick_dim:
            return list(zip(self.targets(fine), self.targets(coarse)))
        return list(zip(fine.blocks(), coarse.blocks()))

    def _restrict(self, lev: int) -> None:
        with self.tracer.span("restriction", l=lev):
            for fine, coarse in self._level_pairs(lev):
                ops.restriction(fine, coarse, self.recorder)
        transfer = self._transfer_at(lev + 1)
        if transfer is not None:
            # Transition level: gather the staged blocks onto the
            # shrunken active rank grid.
            transfer.gather()
        self._init_zero(lev + 1)

    def _interpolate(self, lev: int) -> None:
        transfer = self._transfer_at(lev + 1)
        if transfer is not None:
            # Transition level: scatter the merged correction back to
            # the staged blocks, which interpolate per source rank
            # (interpolation reads only the coarse interior, so the
            # staged blocks need no ghost exchange).
            transfer.scatter()
        with self.tracer.span("interpolation+increment", l=lev):
            for fine, coarse in self._level_pairs(lev):
                ops.interpolation_increment(coarse, fine, self.recorder)

    def _cycle(self, lev: int, kind: str) -> None:
        """Recursive multigrid cycle of the given kind at ``lev``."""
        if lev == self.num_levels - 1:
            with self.tracer.span(
                "bottom", l=lev, solver=self.bottom_solver.name
            ):
                self.bottom_solver.solve(self, lev)
            return
        with self.tracer.span("level", l=lev):
            self.smooth_level(lev, self.max_smooths, with_residual=True)
            self._restrict(lev)
            if kind == "V":
                self._cycle(lev + 1, "V")
            elif kind == "W":
                self._cycle(lev + 1, "W")
                self._cycle(lev + 1, "W")
            else:  # F: one F visit, then a V visit
                self._cycle(lev + 1, "F")
                self._cycle(lev + 1, "V")
            self._interpolate(lev)
            self.smooth_level(lev, self.max_smooths, with_residual=True)

    def run(self) -> None:
        """One multigrid cycle (Algorithm 2 when ``cycle == 'V'``)."""
        with self.tracer.span("vcycle", v=self.cycles_run, kind=self.cycle):
            self._cycle(0, self.cycle)
        self.cycles_run += 1

    def residual_pass(self, lev: int = 0) -> Level:
        """Exchange ``x``, then ``Ax = A x`` and ``r = b - Ax`` on depth
        ``lev`` in one fused kernel call; returns the depth's level."""
        level = self.level_at(lev)
        self.exchange(lev, [level.x])
        for target in self.targets(level):
            self.smoother.apply_op_residual(target, self.recorder)
        return level

    def _block_maxima(self) -> np.ndarray:
        """Each block's max |r| on the finest level, over the interior
        view: NaN-propagating, and blind to ghost slots."""
        level = self.residual_pass()
        r = np.abs(level.interior(level.r))
        if self.recorder is not None:
            self.recorder.reduction()
        return np.max(r.reshape(level.num_blocks, -1), axis=1)

    def max_norm_residual(self) -> float:
        """Global max-norm of the finest-level residual (Algorithm 1)."""
        with self.tracer.span("residual-check", v=self.cycles_run):
            return float(self._allreduce_max(self._block_maxima()))

    def residual_norms(self) -> list[float]:
        """Finest-level residual max-norm of each stacked copy: the
        per-block maxima reduced per copy (blocks are copy-major), each
        bit-identical to ``SimComm.allreduce_max`` of that copy alone.
        """
        with self.tracer.span("residual-check", v=self.cycles_run):
            maxima = self._block_maxima().reshape(self.copies, -1)
            return [float(np.max(row)) for row in maxima]

    def solve(
        self, tol: float = CONVERGENCE_TOL, max_vcycles: int = 100
    ) -> list[float]:
        """Algorithm 1: cycle until the residual max-norm drops below tol.

        Returns the residual history; ``history[0]`` is the initial
        residual and each later entry follows one cycle.
        """
        history = [self.max_norm_residual()]
        while history[-1] > tol and len(history) <= max_vcycles:
            self.run()
            history.append(self.max_norm_residual())
        return history
