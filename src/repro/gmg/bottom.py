"""Coarsest-level ("bottom") solvers.

The paper relaxes the coarsest level with 100 point-Jacobi iterations
and notes "other solvers might be more effective" (Section IV-C) and
"other ... bottom solvers" as future work (Section IX).  Three options:

* :class:`RelaxationBottomSolver` — the paper's default: ``iterations``
  sweeps of the configured smoother (communication-avoiding);
* :class:`ConjugateGradientBottomSolver` — distributed CG with the
  operator applied through the brick kernels and dot products reduced
  across ranks (two extra allreduces per iteration, which is exactly
  why latency-bound coarse grids often prefer relaxation);
* :class:`FFTBottomSolver` — the "direct solver" of the paper's Fig. 2:
  the periodic constant-coefficient operator diagonalises in Fourier
  space, so the coarse problem is solved exactly by one forward/inverse
  FFT pair on the gathered coarse grid.
"""

from __future__ import annotations

import numpy as np

from repro.gmg.level import Level
from repro.obs.tracer import NULL_TRACER


class BottomSolver:
    """Interface: solve ``A x = b`` on the coarsest level of all ranks."""

    name: str = "abstract"
    #: span tracer; rebound by the V-cycle driver when tracing is on
    #: (the driver also wraps the whole call in a ``bottom`` span —
    #: solver-internal spans below add the per-phase detail)
    tracer = NULL_TRACER

    def solve(self, vcycle, lev: int) -> None:
        """``vcycle`` is the running :class:`repro.gmg.vcycle.VCycle`."""
        raise NotImplementedError


class RelaxationBottomSolver(BottomSolver):
    """Point relaxation with the V-cycle's smoother (paper default)."""

    name = "relaxation"

    def __init__(self, iterations: int = 100) -> None:
        if iterations < 1:
            raise ValueError(f"iterations must be positive: {iterations}")
        self.iterations = iterations

    def solve(self, vcycle, lev: int) -> None:
        vcycle.smooth_level(lev, self.iterations, with_residual=False)


class ConjugateGradientBottomSolver(BottomSolver):
    """Distributed conjugate gradients on the coarsest level.

    The operator is SPD up to its constant nullspace; right-hand sides
    produced by restriction of residuals have (numerically) zero mean,
    so plain CG converges to the zero-mean solution.  Dot products are
    summed across ranks through the communicator's allreduce.
    """

    name = "cg"

    def __init__(
        self,
        max_iterations: int = 200,
        rtol: float = 1e-10,
        project_nullspace: bool = True,
    ) -> None:
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be positive: {max_iterations}")
        self.max_iterations = max_iterations
        self.rtol = rtol
        #: project the constant mode out of b/x — required for the
        #: singular periodic/Neumann operators, wrong for Dirichlet
        self.project_nullspace = project_nullspace

    @staticmethod
    def _project_out_nullspace(vcycle, level: Level, attr: str) -> None:
        """Subtract the global mean from a field (interior cells).

        The periodic operator's nullspace is the constant vector; CG on
        the semidefinite system is stable only if iterates stay
        orthogonal to it, so the mean (which enters through rounding)
        is projected out of the residual and the solution.  The sums
        keep ``interior_slots`` order; the subtraction uses the view.
        """
        sums, counts = [], 0
        for lv in level.blocks():
            data = getattr(lv, attr).data[lv.grid.interior_slots]
            sums.append(float(np.sum(data)))
            counts += data.size
        if vcycle.recorder is not None:
            vcycle.recorder.reduction()
        mean = vcycle.allreduce_sum(sums) / counts
        interior = level.interior(getattr(level, attr))
        interior -= mean

    @staticmethod
    def _dot(vcycle, levels: list[Level], a: str, b: str) -> float:
        locals_ = []
        for lv in levels:
            x = getattr(lv, a).data[lv.grid.interior_slots]
            y = getattr(lv, b).data[lv.grid.interior_slots]
            locals_.append(float(np.sum(x * y)))
        if vcycle.recorder is not None:
            vcycle.recorder.reduction()
        return vcycle.allreduce_sum(locals_)

    def _apply_operator(self, vcycle, lev: int) -> None:
        """Ax <- A x with a fresh ghost exchange (radius-1 stencil), one
        kernel call over the depth's level (the blocks are views of it;
        only the dot products need them one by one)."""
        level = vcycle.depths[lev].level
        vcycle.exchange(lev, [level.x])
        for target in vcycle.targets(level):
            vcycle.smoother.apply_op(target, vcycle.recorder)

    def solve(self, vcycle, lev: int) -> None:
        level = vcycle.depths[lev].level
        levels = level.blocks()
        interior = [lv.grid.interior_slots for lv in levels]
        if self.project_nullspace:
            # keep the problem orthogonal to the constant nullspace
            self._project_out_nullspace(vcycle, level, "b")
        # r = b - A x ; p = r  (x starts at the initZero'd correction)
        vcycle.residual_pass(lev)
        p = [lv.r.data.copy() for lv in levels]
        rr = self._dot(vcycle, levels, "r", "r")
        if rr == 0.0:
            return
        rr0 = rr
        saved_x = [np.empty_like(lv.x.data) for lv in levels]
        for it in range(self.max_iterations):
            with self.tracer.span("cg-iteration", l=lev, i=it):
                # Ap through the bricked operator: stage p in x's own
                # storage, take back p with the ghosts the exchange
                # gave it, and restore x
                for lv, pv, xv in zip(levels, p, saved_x):
                    np.copyto(xv, lv.x.data)
                    np.copyto(lv.x.data, pv)
                self._apply_operator(vcycle, lev)
                Ap = [lv.Ax.data.copy() for lv in levels]
                for lv, pv, xv in zip(levels, p, saved_x):
                    np.copyto(pv, lv.x.data)
                    np.copyto(lv.x.data, xv)

                pAp_local = [
                    float(np.sum(pv[sl] * ap[sl]))
                    for pv, ap, sl in zip(p, Ap, interior)
                ]
                if vcycle.recorder is not None:
                    vcycle.recorder.reduction()
                pAp = vcycle.allreduce_sum(pAp_local)
                if pAp == 0.0:
                    break
                alpha = rr / pAp
                for lv, pv, ap in zip(levels, p, Ap):
                    lv.x.data += alpha * pv
                    lv.r.data -= alpha * ap
                rr_new = self._dot(vcycle, levels, "r", "r")
                if rr_new <= self.rtol**2 * rr0:
                    break
                beta = rr_new / rr
                for i, (lv, pv) in enumerate(zip(levels, p)):
                    p[i] = lv.r.data + beta * pv
                rr = rr_new
        if self.project_nullspace:
            self._project_out_nullspace(vcycle, level, "x")


class FFTBottomSolver(BottomSolver):
    """Exact direct solve via FFT diagonalisation (periodic operator).

    Gathers the coarse grid (cheap: the coarsest level is tiny),
    divides each Fourier mode by the operator's symbol, zeroes the
    nullspace mode, and scatters the zero-mean solution back.
    """

    name = "fft"

    def solve(self, vcycle, lev: int) -> None:
        with self.tracer.span("fft-bottom", l=lev):
            self._solve(vcycle, lev)

    def _solve(self, vcycle, lev: int) -> None:
        levels = vcycle.depths[lev].level.blocks()
        topo = vcycle.topology
        cells = levels[0].shape_cells
        if topo is None:
            global_shape = cells
        else:
            global_shape = tuple(
                c * d for c, d in zip(cells, topo.dims)
            )
        b = np.zeros(global_shape)
        for rank, lv in enumerate(levels):
            o = (0, 0, 0) if topo is None else topo.subdomain_origin(rank, cells)
            b[o[0]:o[0] + cells[0], o[1]:o[1] + cells[1], o[2]:o[2] + cells[2]] = (
                lv.b.to_ijk()
            )

        h = levels[0].constants.h
        k = [np.fft.fftfreq(n) * 2.0 * np.pi for n in global_shape]
        # symbol of the 7-point operator: sum_d (2 cos(k_d) - 2) / h^2
        symbol = (
            (2.0 * np.cos(k[0]) - 2.0)[:, None, None]
            + (2.0 * np.cos(k[1]) - 2.0)[None, :, None]
            + (2.0 * np.cos(k[2]) - 2.0)[None, None, :]
        ) / h**2
        bh = np.fft.fftn(b)
        with np.errstate(divide="ignore", invalid="ignore"):
            xh = np.where(symbol != 0.0, bh / symbol, 0.0)
        x = np.real(np.fft.ifftn(xh))

        for rank, lv in enumerate(levels):
            o = (0, 0, 0) if topo is None else topo.subdomain_origin(rank, cells)
            lv.x.set_interior(
                x[o[0]:o[0] + cells[0], o[1]:o[1] + cells[1], o[2]:o[2] + cells[2]]
            )
        if vcycle.recorder is not None:
            for lv in levels:
                vcycle.recorder.kernel(lev, "fft-bottom", lv.num_points)


#: Registry used by :class:`repro.gmg.solver.SolverConfig`.
BOTTOM_SOLVERS: dict[str, type] = {
    "relaxation": RelaxationBottomSolver,
    "cg": ConjugateGradientBottomSolver,
    "fft": FFTBottomSolver,
}


def make_bottom_solver(name: str, **kwargs) -> BottomSolver:
    """Instantiate a bottom solver by registry name."""
    cls = BOTTOM_SOLVERS.get(name)
    if cls is None:
        raise ValueError(
            f"unknown bottom solver {name!r}; choose from {sorted(BOTTOM_SOLVERS)}"
        )
    return cls(**kwargs)
