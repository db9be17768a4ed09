"""Pluggable smoothers.

The paper smooths with damped point-Jacobi and notes that "alternative
smoothers could include successive over-relaxation or Gauss-Seidel with
similar performance characteristics" (Section IV-C) and lists "other
smoothers" as future work (Section IX).  This module provides them, all
running on bricked storage through the same DSL-generated kernels:

* :class:`JacobiSmoother` — the paper's default,
  ``x := x + gamma (A x - b)`` with ``gamma = omega h^2 / 6``
  (``omega = 1/2`` reproduces the paper's ``h^2/12`` exactly);
* :class:`RedBlackGaussSeidelSmoother` — chequerboard exact point
  solves, two coloured half-sweeps per iteration;
* :class:`SORSmoother` — red-black successive over-relaxation
  (``omega = 1`` degenerates to Gauss-Seidel);
* :class:`ChebyshevSmoother` — a degree-``k`` Chebyshev polynomial in
  the Jacobi-preconditioned operator, targeting the upper part of the
  spectrum (the HPGMG family's smoother of choice).

Every smoother declares how many halo cells one iteration consumes
(``ghost_cells_per_iteration``) so communication-avoiding scheduling
stays correct: coloured sweeps apply the operator twice per iteration
and therefore consume two cells.

Residual convention: when asked for a residual, every smoother writes
``r = b - A x`` with the operator application taken *before* its first
update of the iteration — the same convention as the paper's fused
``smooth+residual`` kernel, keeping all smoothers interchangeable in
Algorithm 2.
"""

from __future__ import annotations

import weakref
from functools import cached_property

import numpy as np

from repro.dsl.codegen import compile_stencil
from repro.dsl.library import (
    FUSED_APPLY_RESIDUAL,
    FUSED_SMOOTH,
    FUSED_SMOOTH_RESIDUAL,
)
from repro.gmg import operators as ops
from repro.gmg.level import Level
from repro.instrument import Recorder
from repro.obs.tracer import NULL_TRACER


def _run_kernel(level: Level, stencil, consts: dict, sweeps: int = 1) -> None:
    """Apply one compiled stencil ``sweeps`` times over ``level``."""
    kernel = compile_stencil(stencil, level.grid.brick_dim)
    kernel.apply(level.fields(), consts, level.workspace, sweeps)


def _scratch(level: Level, name: str) -> np.ndarray:
    """A reusable per-level temporary shaped like the packed fields.

    Hoists the smoothers' per-iteration allocations (``update``, ``r``,
    ``z``, ``d``) into the level workspace; with ~10^3 smoothing
    iterations per solve the allocator traffic is measurable.
    """
    shape, dtype = level.x.data.shape, level.x.data.dtype
    key = ("scratch", name)
    buf = level.workspace.get(key)
    if buf is None or buf.shape != shape or buf.dtype != dtype:
        buf = np.empty(shape, dtype=dtype)
        level.workspace[key] = buf
    return buf


class Smoother:
    """Interface: smoothing iterations over a level's bricked fields.

    Subclasses implement :meth:`sweep`, one iteration.  The V-cycle
    driver calls :meth:`iterate` once per exchange window with the
    number of iterations the window holds; it assumes the ghost shell
    of ``x`` (and ``b``) holds at least ``sweeps *
    ghost_cells_per_iteration`` cells of valid halo.

    The smoother also owns the operator it relaxes: :meth:`apply_op` is
    what the CG bottom solver applies, :meth:`apply_op_residual` what
    the convergence check and CG's first residual run.
    """

    name: str = "abstract"
    ghost_cells_per_iteration: int = 1
    #: span tracer; the V-cycle driver rebinds this when tracing is on,
    #: so the default path pays only the null tracer's no-op calls
    tracer = NULL_TRACER

    def iterate(
        self,
        level: Level,
        with_residual: bool,
        recorder: Recorder | None,
        sweeps: int = 1,
    ) -> None:
        """``sweeps`` successive iterations.  Override only to run a
        whole window in fewer kernel calls, with the same result."""
        for _ in range(sweeps):
            self.sweep(level, with_residual, recorder)

    def sweep(
        self, level: Level, with_residual: bool, recorder: Recorder | None
    ) -> None:
        """One smoothing iteration."""
        raise NotImplementedError

    def apply_op(self, level: Level, recorder: Recorder | None) -> None:
        """``Ax = A x`` (requires valid halo): the paper's constant-
        coefficient 7-point operator."""
        with self.tracer.span("applyOp", l=level.index):
            ops.apply_op(level, recorder)

    def apply_op_residual(self, level: Level, recorder: Recorder | None) -> None:
        """``Ax = A x`` and ``r = b - Ax`` in one fused kernel call
        (requires valid halo)."""
        with self.tracer.span(FUSED_APPLY_RESIDUAL.name, l=level.index):
            _run_kernel(level, FUSED_APPLY_RESIDUAL, level.constants.as_dict())
        if recorder is not None:
            recorder.kernel(level.index, FUSED_APPLY_RESIDUAL.name, level.num_points)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class JacobiSmoother(Smoother):
    """Damped point Jacobi — the paper's smoother.

    ``omega = 0.5`` gives the paper's ``gamma = h^2/12`` exactly and is
    the default.  Algorithm 2's ``applyOp`` then ``smooth`` (or
    ``smooth+residual``) run as one fused stencil: the applyOp subtree
    is substituted into the update (and residual) expressions and
    CSE-hoisted, so the float sequence matches the staged pair — which
    ``tests/oracle.py`` keeps as the reference — with one halo read and
    one kernel call for a whole exchange window.
    """

    name = "jacobi"
    ghost_cells_per_iteration = 1

    def __init__(self, omega: float = 0.5) -> None:
        if not 0.0 < omega <= 1.0:
            raise ValueError(f"Jacobi damping must be in (0, 1]: {omega}")
        self.omega = omega

    def _constants(self, level: Level) -> dict[str, float]:
        consts = level.constants.as_dict()
        # gamma = omega / |alpha| = omega h^2 / 6; the Level's default
        # encodes omega = 1/2 and is kept bit-compatible.
        if self.omega != 0.5:
            consts["gamma"] = self.omega / abs(level.constants.alpha)
        return consts

    def iterate(
        self,
        level: Level,
        with_residual: bool,
        recorder: Recorder | None,
        sweeps: int = 1,
    ) -> None:
        stencil = FUSED_SMOOTH_RESIDUAL if with_residual else FUSED_SMOOTH
        with self.tracer.span(stencil.name, l=level.index, sweeps=sweeps):
            _run_kernel(level, stencil, self._constants(level), sweeps)
        if recorder is not None:
            recorder.kernel(level.index, stencil.name, level.num_points, times=sweeps)

    def sweep(
        self, level: Level, with_residual: bool, recorder: Recorder | None
    ) -> None:
        self.iterate(level, with_residual, recorder)


class _ColoredSmoother(Smoother):
    """Shared machinery for chequerboard (red-black) sweeps."""

    ghost_cells_per_iteration = 2  # two operator applications

    def __init__(self, omega: float = 1.0) -> None:
        if not 0.0 < omega < 2.0:
            raise ValueError(f"relaxation factor must be in (0, 2): {omega}")
        self.omega = omega
        # keyed weakly by the grid object itself: an id()-keyed cache
        # can alias a recycled id onto a new, differently-shaped grid
        # after the original is garbage-collected
        self._masks: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def _color_masks(self, level: Level) -> tuple[np.ndarray, np.ndarray]:
        """Per-slot chequerboard masks of shape ``(num_slots, B, B, B)``.

        Colour is the global parity of the cell coordinates, so the
        pattern is seamless across bricks and (for even subdomains,
        which power-of-two sizing guarantees) across ranks — and
        identical in every rank block of a stacked grid, whose tiled
        ``slot_to_grid`` produces the per-rank masks stacked.
        """
        key = level.grid
        masks = self._masks.get(key)
        if masks is None:
            grid = level.grid
            B = grid.brick_dim
            origin = (grid.slot_to_grid - grid.ghost_bricks) * B
            local = np.arange(B)
            lx = local[:, None, None]
            ly = local[None, :, None]
            lz = local[None, None, :]
            parity = (
                (origin[:, 0, None, None, None] + lx)
                + (origin[:, 1, None, None, None] + ly)
                + (origin[:, 2, None, None, None] + lz)
            ) % 2
            red = parity == 0
            self._masks[key] = masks = (red, ~red)
        return masks

    def _half_sweep(
        self,
        level: Level,
        mask: np.ndarray,
        recorder: Recorder | None,
        op_label: str,
    ) -> None:
        self.apply_op(level, recorder)
        with self.tracer.span(op_label, l=level.index):
            self._masked_update(level, mask)
        if recorder is not None:
            recorder.kernel(level.index, op_label, level.num_points // 2)

    def _masked_update(self, level: Level, mask: np.ndarray) -> None:
        """Exact point solve on the coloured cells, over-relaxed:
        ``x_c := x_c + omega (b - A x)_c / alpha_diag``.

        The temporary lives in the level workspace; the ``out=`` forms
        replay the expression ``omega * ((b - Ax) / alpha)`` with the
        same operation order, so results stay bit-identical to the
        allocating form.
        """
        c = level.constants
        x, Ax, b = level.x.data, level.Ax.data, level.b.data
        update = _scratch(level, "update")
        np.subtract(b, Ax, out=update)
        np.divide(update, c.alpha, out=update)
        np.multiply(update, self.omega, out=update)
        np.add(x, update, out=x, where=mask)

    def sweep(
        self, level: Level, with_residual: bool, recorder: Recorder | None
    ) -> None:
        red, black = self._color_masks(level)
        if with_residual:
            # pre-update residual (Algorithm 2's convention) reuses the
            # red half-sweep's operator application
            self.apply_op_residual(level, recorder)
            self._half_sweep_given_ax(level, red, recorder)
        else:
            self._half_sweep(level, red, recorder, self._half_label)
        self._half_sweep(level, black, recorder, self._half_label)

    def _half_sweep_given_ax(
        self, level: Level, mask: np.ndarray, recorder: Recorder | None
    ) -> None:
        with self.tracer.span(self._half_label, l=level.index):
            self._masked_update(level, mask)
        if recorder is not None:
            recorder.kernel(level.index, self._half_label, level.num_points // 2)

    @property
    def _half_label(self) -> str:
        return f"{self.name}-half"


class RedBlackGaussSeidelSmoother(_ColoredSmoother):
    """Red-black Gauss-Seidel: exact point solves, two colours."""

    name = "gsrb"

    def __init__(self) -> None:
        super().__init__(omega=1.0)


class SORSmoother(_ColoredSmoother):
    """Red-black successive over-relaxation."""

    name = "sor"

    def __init__(self, omega: float = 1.4) -> None:
        super().__init__(omega=omega)


class ChebyshevSmoother(Smoother):
    """Chebyshev polynomial smoother on the Jacobi-preconditioned operator.

    Targets eigenvalues of ``D^-1 A`` in ``[lambda_max/alpha_ratio,
    lambda_max]``; for the 7-point periodic Poisson operator
    ``D^-1 A`` has spectrum in ``[0, 2)`` with ``lambda_max < 2``.
    One iteration = ``degree`` operator applications, fused into the
    iterate so the CA scheduler sees ``degree`` halo cells consumed.
    """

    name = "chebyshev"

    def __init__(self, degree: int = 2, eig_upper: float = 1.9,
                 alpha_ratio: float = 8.0) -> None:
        if degree < 1:
            raise ValueError(f"degree must be at least 1: {degree}")
        if eig_upper <= 0 or alpha_ratio <= 1:
            raise ValueError("need eig_upper > 0 and alpha_ratio > 1")
        self.degree = degree
        self.eig_upper = eig_upper
        self.alpha_ratio = alpha_ratio
        self.ghost_cells_per_iteration = degree

    @cached_property
    def _coefficients(self) -> tuple[float, float, list[float]]:
        """Chebyshev recurrence setup for the target interval."""
        lmax = self.eig_upper
        lmin = lmax / self.alpha_ratio
        theta = 0.5 * (lmax + lmin)
        delta = 0.5 * (lmax - lmin)
        return theta, delta, []

    def sweep(
        self, level: Level, with_residual: bool, recorder: Recorder | None
    ) -> None:
        theta, delta, _ = self._coefficients
        c = level.constants
        x = level.x.data
        # workspace-hoisted temporaries; every ``out=`` form below
        # replays the allocating expression's operation order exactly
        r = _scratch(level, "cheb_r")
        z = _scratch(level, "cheb_z")
        d = _scratch(level, "cheb_d")
        if with_residual:
            self.apply_op_residual(level, recorder)
        else:
            self.apply_op(level, recorder)
        with self.tracer.span("chebyshev-update", l=level.index):
            np.subtract(level.b.data, level.Ax.data, out=r)
            # Chebyshev iteration on the preconditioned residual equation
            # (standard three-term recurrence, e.g. Saad, Alg. 12.1)
            dinv = 1.0 / c.alpha
            np.multiply(r, dinv, out=z)
            np.divide(z, theta, out=d)
            x += d
        sigma = theta / delta
        rho = 1.0 / sigma
        for _ in range(1, self.degree):
            self.apply_op(level, recorder)
            with self.tracer.span("chebyshev-update", l=level.index):
                np.subtract(level.b.data, level.Ax.data, out=r)
                np.multiply(r, dinv, out=z)
                rho_new = 1.0 / (2.0 * sigma - rho)
                # d = (rho_new * rho) * d + (2 rho_new / delta) * z, in place
                np.multiply(d, rho_new * rho, out=d)
                np.multiply(z, 2.0 * rho_new / delta, out=z)
                np.add(d, z, out=d)
                x += d
            rho = rho_new
        if recorder is not None:
            recorder.kernel(level.index, "chebyshev-update", level.num_points)


#: Registry used by :class:`repro.gmg.solver.SolverConfig`.
SMOOTHERS: dict[str, type] = {
    "jacobi": JacobiSmoother,
    "gsrb": RedBlackGaussSeidelSmoother,
    "sor": SORSmoother,
    "chebyshev": ChebyshevSmoother,
}


def make_smoother(name: str, **kwargs) -> Smoother:
    """Instantiate a smoother by registry name."""
    cls = SMOOTHERS.get(name)
    if cls is None:
        raise ValueError(f"unknown smoother {name!r}; choose from {sorted(SMOOTHERS)}")
    return cls(**kwargs)
