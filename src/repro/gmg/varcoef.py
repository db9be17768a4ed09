"""Variable-coefficient geometric multigrid.

The paper's model problem has constant coefficients "for easy
performance comparison", while noting the DSL generates code for "more
complicated stencils" (Section IV-C) — and its HPGMG baseline is a
variable-coefficient FV code.  This module provides the full solve
path for a spatially varying diffusion coefficient ``beta(x) > 0``:

* the operator is the 7-point ``A x = c0 x + cx (x_E + x_W) +
  cy (x_N + x_S) + cz (x_U + x_D)`` with ``c{x,y,z} = beta / h^2`` and
  the conservative diagonal ``c0 = -2 (cx + cy + cz)`` (constant
  ``beta = 1`` recovers the paper's operator exactly);
* smoothing is damped point Jacobi with the *local* diagonal:
  ``x := x + omega (b - A x) / c0``, with ``1/c0`` precomputed per
  level (the ``dinv`` field) as production codes do;
* coarse-level coefficients come from volume-averaging ``beta`` (the
  standard rediscretisation coarsening);
* everything else — brick layout, CA exchange, restriction,
  interpolation, bottom relaxation — is the constant-coefficient
  machinery unchanged.

Verification is by inversion: manufacture ``b = A u`` for a known
``u`` through the operator kernel itself, then check the solver
recovers ``u``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bricks.bricked_array import BrickedArray
from repro.comm.exchange import HaloExchange
from repro.comm.simmpi import SimComm
from repro.comm.topology import CartTopology
from repro.dsl.ast import ConstRef, Grid, Stencil, indices
from repro.dsl.codegen import compile_stencil
from repro.gmg.bottom import RelaxationBottomSolver
from repro.gmg.level import Level, level_brick_dim
from repro.gmg.smoothers import Smoother
from repro.gmg.vcycle import VCycle
from repro.instrument import Recorder


def _build_variable_apply_op() -> Stencil:
    i, j, k = indices()
    x, Ax = Grid("x"), Grid("Ax")
    c0, cx, cy, cz = Grid("c0"), Grid("cx"), Grid("cy"), Grid("cz")
    calc = (
        c0(i, j, k) * x(i, j, k)
        + cx(i, j, k) * (x(i + 1, j, k) + x(i - 1, j, k))
        + cy(i, j, k) * (x(i, j + 1, k) + x(i, j - 1, k))
        + cz(i, j, k) * (x(i, j, k + 1) + x(i, j, k - 1))
    )
    return Stencil("applyOpVar", [Ax(i, j, k).assign(calc)])


def _build_variable_smooth(with_residual: bool) -> Stencil:
    i, j, k = indices()
    x, Ax, b, r = Grid("x"), Grid("Ax"), Grid("b"), Grid("r")
    dinv = Grid("dinv")
    omega = ConstRef("omega")
    update = x(i, j, k) + omega * (b(i, j, k) - Ax(i, j, k)) * dinv(i, j, k)
    stmts = [x(i, j, k).assign(update)]
    if with_residual:
        stmts.append(r(i, j, k).assign(b(i, j, k) - Ax(i, j, k)))
    return Stencil("smoothVar+residual" if with_residual else "smoothVar", stmts)


VARIABLE_APPLY_OP = _build_variable_apply_op()
VARIABLE_SMOOTH = _build_variable_smooth(with_residual=False)
VARIABLE_SMOOTH_RESIDUAL = _build_variable_smooth(with_residual=True)


class VarCoefLevel(Level):
    """A level carrying the coefficient fields alongside x/b/Ax/r.

    ``beta`` is the physical coefficient; ``c0/cx/cy/cz`` its stencil
    form at this level's spacing and ``dinv = 1/c0``.  Coefficients are
    static: their ghost bricks are filled once at setup.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        for name in ("beta", "c0", "cx", "cy", "cz", "dinv"):
            setattr(self, name, BrickedArray.zeros(self.grid, dtype=self.dtype))

    def set_coefficient(self, beta_dense: np.ndarray) -> None:
        """Install ``beta`` and derive the stencil coefficients."""
        if np.any(beta_dense <= 0):
            raise ValueError("the diffusion coefficient must be positive")
        h2 = self.constants.h ** 2
        self.beta.set_interior(beta_dense)
        side = beta_dense / h2
        for name in ("cx", "cy", "cz"):
            getattr(self, name).set_interior(side)
        c0 = -6.0 * side
        self.c0.set_interior(c0)
        self.dinv.set_interior(1.0 / c0)

    def fields(self) -> dict[str, BrickedArray]:
        base = super().fields()
        base.update(
            c0=self.c0, cx=self.cx, cy=self.cy, cz=self.cz, dinv=self.dinv
        )
        return base


class VariableCoefficientJacobi(Smoother):
    """Damped Jacobi with the local diagonal (``omega/c0(x)``)."""

    name = "jacobi-variable"
    ghost_cells_per_iteration = 1

    def __init__(self, omega: float = 0.5) -> None:
        if not 0.0 < omega <= 1.0:
            raise ValueError(f"Jacobi damping must be in (0, 1]: {omega}")
        self.omega = omega

    def sweep(
        self, level: Level, with_residual: bool, recorder: Recorder | None
    ) -> None:
        kernel = compile_stencil(VARIABLE_APPLY_OP, level.grid.brick_dim)
        kernel.apply(level.fields(), {}, level.workspace)
        if recorder is not None:
            recorder.kernel(level.index, "applyOp", level.num_points)
        stencil = VARIABLE_SMOOTH_RESIDUAL if with_residual else VARIABLE_SMOOTH
        kernel = compile_stencil(stencil, level.grid.brick_dim)
        kernel.apply(level.fields(), {"omega": self.omega}, level.workspace)
        if recorder is not None:
            op = "smooth+residual" if with_residual else "smooth"
            recorder.kernel(level.index, op, level.num_points)


@dataclass
class VarCoefResult:
    """Outcome of a variable-coefficient solve."""

    converged: bool
    num_vcycles: int
    residual_history: list[float]


class VariableCoefficientSolver:
    """Brick GMG for ``-div(beta grad u) = f`` (periodic, cell-centred).

    Parameters mirror the constant-coefficient solver; ``beta_fn`` maps
    cell-centre coordinate arrays ``(x, y, z)`` (broadcastable) to the
    positive coefficient field.
    """

    def __init__(
        self,
        beta_fn,
        global_cells: int = 32,
        num_levels: int = 3,
        brick_dim: int = 4,
        max_smooths: int = 12,
        bottom_smooths: int = 100,
        omega: float = 0.5,
        rank_dims: tuple[int, int, int] = (1, 1, 1),
        ordering: str = "surface-major",
    ) -> None:
        self.global_cells = int(global_cells)
        self.recorder = Recorder()
        self.topology = CartTopology(rank_dims)
        self.comm = SimComm(self.topology.size)
        per_rank = tuple(global_cells // p for p in rank_dims)
        if any(global_cells % p for p in rank_dims):
            raise ValueError(f"rank_dims {rank_dims} do not divide {global_cells}")

        self.rank_levels: list[list[VarCoefLevel]] = []
        for rank in range(self.topology.size):
            origin = self.topology.subdomain_origin(rank, per_rank)
            levels = []
            beta_dense = None
            for lev in range(num_levels):
                cells = tuple(c >> lev for c in per_rank)
                h = (1 << lev) / global_cells
                bdim = level_brick_dim(min(cells), brick_dim)
                level = VarCoefLevel(lev, cells, bdim, h, ordering)
                if lev == 0:
                    beta_dense = self._sample_beta(beta_fn, cells, h, origin)
                else:
                    n0, n1, n2 = levels[-1].shape_cells
                    beta_dense = beta_dense.reshape(
                        n0 // 2, 2, n1 // 2, 2, n2 // 2, 2
                    ).mean(axis=(1, 3, 5))
                level.set_coefficient(beta_dense)
                levels.append(level)
            self.rank_levels.append(levels)

        self.exchangers = [
            HaloExchange(
                self.rank_levels[0][lev].grid, self.topology, self.comm,
                self.recorder,
            )
            for lev in range(num_levels)
        ]
        # static coefficient ghosts, filled once
        for lev in range(num_levels):
            coeff_fields = [
                [levels[lev].c0, levels[lev].cx, levels[lev].cy,
                 levels[lev].cz, levels[lev].dinv]
                for levels in self.rank_levels
            ]
            self.exchangers[lev].exchange(lev, coeff_fields)

        def _apply_variable_op(level, recorder):
            kernel = compile_stencil(VARIABLE_APPLY_OP, level.grid.brick_dim)
            kernel.apply(level.fields(), {}, level.workspace)
            if recorder is not None:
                recorder.kernel(level.index, "applyOp", level.num_points)

        self.vcycle = VCycle(
            self.rank_levels,
            self.exchangers,
            max_smooths=max_smooths,
            bottom_smooths=bottom_smooths,
            recorder=self.recorder,
            apply_op_fn=_apply_variable_op,
            smoother=VariableCoefficientJacobi(omega),
            bottom_solver=RelaxationBottomSolver(bottom_smooths),
            allreduce_max=self.comm.allreduce_max,
            allreduce_sum=self.comm.allreduce_sum,
            topology=self.topology,
        )

    @staticmethod
    def _sample_beta(beta_fn, cells, h, origin) -> np.ndarray:
        coords = [
            ((np.arange(origin[d], origin[d] + cells[d]) + 0.5) * h)
            for d in range(3)
        ]
        beta = beta_fn(
            coords[0][:, None, None],
            coords[1][None, :, None],
            coords[2][None, None, :],
        )
        return np.broadcast_to(beta, cells).astype(np.float64)

    # ------------------------------------------------------------------
    def apply_operator(self, u_dense: np.ndarray) -> np.ndarray:
        """``A u`` on the global grid (used to manufacture b = A u)."""
        per_rank = tuple(
            self.global_cells // p for p in self.topology.dims
        )
        out = np.empty((self.global_cells,) * 3)
        for rank, levels in enumerate(self.rank_levels):
            lv = levels[0]
            o = self.topology.subdomain_origin(rank, per_rank)
            lv.x.set_interior(
                u_dense[o[0]:o[0] + per_rank[0], o[1]:o[1] + per_rank[1],
                        o[2]:o[2] + per_rank[2]]
            )
        self.exchangers[0].exchange(
            0, [[levels[0].x] for levels in self.rank_levels]
        )
        kernel = compile_stencil(
            VARIABLE_APPLY_OP, self.rank_levels[0][0].grid.brick_dim
        )
        for rank, levels in enumerate(self.rank_levels):
            lv = levels[0]
            kernel.apply(lv.fields(), {}, lv.workspace)
            o = self.topology.subdomain_origin(rank, per_rank)
            out[o[0]:o[0] + per_rank[0], o[1]:o[1] + per_rank[1],
                o[2]:o[2] + per_rank[2]] = lv.Ax.to_ijk()
            lv.x.fill(0.0)
        return out

    def set_rhs(self, b_dense: np.ndarray) -> None:
        """Distribute a global right-hand side to the finest level."""
        per_rank = tuple(self.global_cells // p for p in self.topology.dims)
        for rank, levels in enumerate(self.rank_levels):
            o = self.topology.subdomain_origin(rank, per_rank)
            levels[0].b.set_interior(
                b_dense[o[0]:o[0] + per_rank[0], o[1]:o[1] + per_rank[1],
                        o[2]:o[2] + per_rank[2]]
            )

    def solve(self, tol: float = 1e-10, max_vcycles: int = 100) -> VarCoefResult:
        history = self.vcycle.solve(tol, max_vcycles)
        self.comm.assert_drained()
        return VarCoefResult(
            converged=history[-1] <= tol,
            num_vcycles=len(history) - 1,
            residual_history=history,
        )

    def solution(self) -> np.ndarray:
        per_rank = tuple(self.global_cells // p for p in self.topology.dims)
        out = np.empty((self.global_cells,) * 3)
        for rank, levels in enumerate(self.rank_levels):
            o = self.topology.subdomain_origin(rank, per_rank)
            out[o[0]:o[0] + per_rank[0], o[1]:o[1] + per_rank[1],
                o[2]:o[2] + per_rank[2]] = levels[0].x.to_ijk()
        return out
