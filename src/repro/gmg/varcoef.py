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
* everything else — hierarchy, stacked execution, brick layout, CA
  exchange, restriction, interpolation, bottom relaxation — is the
  constant-coefficient solver's: the coefficients are more grids read
  by the same bricks, which each level stacks like ``x`` and ``b``.

Verification is by inversion: manufacture ``b = A u`` for a known
``u`` through the operator kernel itself, then check the solver
recovers ``u``.
"""

from __future__ import annotations

import numpy as np

from repro.bricks.bricked_array import BrickedArray
from repro.dsl.ast import ConstRef, Grid, Stencil, indices
from repro.dsl.codegen import compile_stencil
from repro.dsl.library import build_variable_coefficient_apply_op
from repro.gmg import operators as ops
from repro.gmg.level import Level
from repro.gmg.smoothers import Smoother
from repro.gmg.solver import GMGSolver, SolverConfig
from repro.instrument import Recorder

#: the stencil-form coefficient grids a :class:`VarCoefLevel` carries
COEFFICIENTS = ("c0", "cx", "cy", "cz", "dinv")


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


VARIABLE_APPLY_OP = build_variable_coefficient_apply_op()
VARIABLE_SMOOTH = _build_variable_smooth(with_residual=False)
VARIABLE_SMOOTH_RESIDUAL = _build_variable_smooth(with_residual=True)


class VarCoefLevel(Level):
    """A level carrying the coefficient fields alongside x/b/Ax/r.

    ``c0/cx/cy/cz`` are the stencil form of ``beta`` at this level's
    spacing and ``dinv = 1/c0``.  Coefficients are static: their ghost
    bricks are filled once at setup.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        for name in COEFFICIENTS:
            setattr(self, name, BrickedArray.zeros(self.grid, dtype=self.dtype))

    def set_coefficient(self, beta_dense: np.ndarray) -> None:
        """Install ``beta`` and derive the stencil coefficients."""
        if not np.all(np.isfinite(beta_dense)):
            raise ValueError("the diffusion coefficient must be finite (NaN or inf)")
        if np.any(beta_dense <= 0):
            raise ValueError("the diffusion coefficient must be positive")
        h2 = self.constants.h ** 2
        side = beta_dense / h2
        for name in ("cx", "cy", "cz"):
            getattr(self, name).set_interior(side)
        c0 = -6.0 * side
        self.c0.set_interior(c0)
        self.dinv.set_interior(1.0 / c0)

    def fields(self) -> dict[str, BrickedArray]:
        coefficients = {name: getattr(self, name) for name in COEFFICIENTS}
        return {**super().fields(), **coefficients}


class VariableCoefficientJacobi(Smoother):
    """Damped Jacobi with the local diagonal (``omega/c0(x)``)."""

    name = "jacobi-variable"

    def __init__(self, omega: float = 0.5) -> None:
        if not 0.0 < omega <= 1.0:
            raise ValueError(f"Jacobi damping must be in (0, 1]: {omega}")
        self.omega = omega

    def apply_op(self, level: Level, recorder: Recorder | None) -> None:
        """``Ax = A x`` with the variable-coefficient operator."""
        kernel = compile_stencil(VARIABLE_APPLY_OP, level.grid.brick_dim)
        with self.tracer.span("applyOp", l=level.index):
            kernel.apply(level.fields(), {}, level.workspace)
        if recorder is not None:
            recorder.kernel(level.index, "applyOp", level.num_points)

    def apply_op_residual(self, level: Level, recorder: Recorder | None) -> None:
        """The variable-coefficient ``Ax = A x``, then ``r = b - Ax``."""
        self.apply_op(level, recorder)
        with self.tracer.span("residual", l=level.index):
            ops.residual(level, recorder)

    def sweep(
        self, level: Level, with_residual: bool, recorder: Recorder | None
    ) -> None:
        self.apply_op(level, recorder)
        stencil = VARIABLE_SMOOTH_RESIDUAL if with_residual else VARIABLE_SMOOTH
        kernel = compile_stencil(stencil, level.grid.brick_dim)
        kernel.apply(level.fields(), {"omega": self.omega}, level.workspace)
        if recorder is not None:
            op = "smooth+residual" if with_residual else "smooth"
            recorder.kernel(level.index, op, level.num_points)


class VariableCoefficientSolver(GMGSolver):
    """Brick GMG for ``-div(beta grad u) = f`` (periodic, cell-centred).

    A :class:`~repro.gmg.solver.GMGSolver` over :class:`VarCoefLevel`
    levels, smoothed by :class:`VariableCoefficientJacobi`; parameters
    mirror :class:`~repro.gmg.solver.SolverConfig`.  ``beta_fn`` maps
    cell-centre coordinate arrays ``(x, y, z)`` (broadcastable) to the
    positive, finite coefficient field.  ``b`` starts at zero
    (:meth:`set_rhs` installs one); :meth:`solve` stops at
    ``config.tol`` / ``config.max_vcycles`` — replace ``solver.config``
    with ``dataclasses.replace(solver.config, tol=...)`` to change them.
    """

    level_type = VarCoefLevel

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
    ) -> None:
        self.beta_fn = beta_fn
        super().__init__(
            SolverConfig(
                global_cells=global_cells,
                num_levels=num_levels,
                brick_dim=brick_dim,
                max_smooths=max_smooths,
                bottom_smooths=bottom_smooths,
                rank_dims=tuple(rank_dims),
                smoother_options=(("omega", omega),),
            )
        )

    def _setup_problem(self) -> None:
        """Sample ``beta`` on every rank's finest level, volume-average
        it down the hierarchy, and fill the static coefficient ghosts
        with one exchange per level that has a shell.  ``b`` stays
        zero."""
        per_rank = self.config.cells_per_rank
        h = self.config.level_spacing(0)
        blocks = [level.blocks() for level in self.levels]
        for rank in range(self.topology.size):
            origin = self.topology.subdomain_origin(rank, per_rank)
            coords = [
                (np.arange(o, o + n) + 0.5) * h for o, n in zip(origin, per_rank)
            ]
            beta = self.beta_fn(*np.ix_(*coords))
            beta = np.broadcast_to(beta, per_rank).astype(np.float64)
            for views in blocks:
                level = views[rank]
                if level.index > 0:
                    n0, n1, n2 = beta.shape
                    beta = beta.reshape(n0 // 2, 2, n1 // 2, 2, n2 // 2, 2).mean(axis=(1, 3, 5))
                level.set_coefficient(beta)
        for lev, exchanger in enumerate(self.exchangers):
            if exchanger is None:
                continue
            exchanger.exchange(
                lev, [getattr(self.levels[lev], name) for name in COEFFICIENTS]
            )

    def make_smoother(self) -> VariableCoefficientJacobi:
        return VariableCoefficientJacobi(**dict(self.config.smoother_options))

    # ------------------------------------------------------------------
    def _distribute(self, name: str, dense: np.ndarray) -> None:
        """Write a global dense array into the interior of every rank's
        finest-level field ``name``."""
        for level, window in self._subdomains():
            getattr(level, name).set_interior(dense[window])

    def apply_operator(self, u_dense: np.ndarray) -> np.ndarray:
        """``A u`` on the global grid (used to manufacture b = A u);
        leaves ``x`` zero."""
        self._distribute("x", u_dense)
        level = self.vcycle.level_at(0)
        self.vcycle.exchange(0, [level.x])
        for target in self.vcycle.targets(level):
            self.vcycle.smoother.apply_op(target, None)
        out = self._assemble("Ax")
        level.x.fill(0.0)
        return out

    def set_rhs(self, b_dense: np.ndarray) -> None:
        """Distribute a global right-hand side to the finest level."""
        self._distribute("b", b_dense)
