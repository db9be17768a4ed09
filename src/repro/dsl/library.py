"""The V-cycle's kernels expressed in the DSL, plus operator metadata.

The pointwise/stencil kernels (``applyOp``, ``smooth``,
``smooth+residual``, ``residual``) are full DSL stencils and are what
the solver executes (via :func:`repro.dsl.codegen.compile_stencil`).
The inter-grid operators (``restriction``,
``interpolation+increment``) couple two resolutions and are implemented
as dedicated operators in :mod:`repro.gmg.operators`; their
FLOP/traffic characteristics are recorded here as
:class:`OperatorInfo` so the performance models and the Table IV
reproduction treat all five V-cycle operations uniformly.

Model problem constants (Section IV-C): the 7-point constant-coefficient
Poisson operator has centre coefficient ``alpha = -6/h**2`` and
neighbour coefficient ``beta = 1/h**2``; the point-Jacobi smoother is
``x := x + gamma*(Ax - b)`` with ``gamma = h**2/12`` (damped Jacobi,
omega = 1/2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dsl.analysis import analyze
from repro.dsl.ast import ConstRef, Grid, Stencil, indices
from repro.dsl.fusion import compose_stencils


def _build_apply_op() -> Stencil:
    i, j, k = indices()
    x, Ax = Grid("x"), Grid("Ax")
    alpha, beta = ConstRef("alpha"), ConstRef("beta")
    calc = alpha * x(i, j, k) + beta * (
        x(i + 1, j, k)
        + x(i - 1, j, k)
        + x(i, j + 1, k)
        + x(i, j - 1, k)
        + x(i, j, k + 1)
        + x(i, j, k - 1)
    )
    return Stencil("applyOp", [Ax(i, j, k).assign(calc)])


def _build_smooth() -> Stencil:
    i, j, k = indices()
    x, Ax, b = Grid("x"), Grid("Ax"), Grid("b")
    gamma = ConstRef("gamma")
    update = x(i, j, k) + gamma * Ax(i, j, k) - gamma * b(i, j, k)
    return Stencil("smooth", [x(i, j, k).assign(update)])


def _build_smooth_residual() -> Stencil:
    i, j, k = indices()
    x, Ax, b, r = Grid("x"), Grid("Ax"), Grid("b"), Grid("r")
    gamma = ConstRef("gamma")
    update = x(i, j, k) + gamma * Ax(i, j, k) - gamma * b(i, j, k)
    residual = b(i, j, k) - Ax(i, j, k)
    return Stencil(
        "smooth+residual",
        [x(i, j, k).assign(update), r(i, j, k).assign(residual)],
    )


def _build_residual() -> Stencil:
    i, j, k = indices()
    Ax, b, r = Grid("Ax"), Grid("b"), Grid("r")
    return Stencil("residual", [r(i, j, k).assign(b(i, j, k) - Ax(i, j, k))])


#: The 7-point constant-coefficient operator application (Fig. 1).
APPLY_OP = _build_apply_op()
#: Point-Jacobi update (bottom solver uses this without the residual).
SMOOTH = _build_smooth()
#: Fused Jacobi update + residual, the V-cycle's workhorse.
SMOOTH_RESIDUAL = _build_smooth_residual()
#: Residual only (used for the convergence check).
RESIDUAL = _build_residual()

#: Fused pipelines: one kernel, one halo gather/refresh per invocation.
#: All producer outputs are still stored, so each fused kernel is
#: bit-identical (in every field it touches) to running its stages
#: back to back — see :mod:`repro.dsl.fusion`.
FUSED_SMOOTH = compose_stencils("applyOp>smooth", (APPLY_OP, SMOOTH))
FUSED_SMOOTH_RESIDUAL = compose_stencils(
    "applyOp>smooth+residual", (APPLY_OP, SMOOTH_RESIDUAL)
)
FUSED_APPLY_RESIDUAL = compose_stencils("applyOp>residual", (APPLY_OP, RESIDUAL))

#: Fused stencil registry keyed by the unfused pipeline tail it replaces.
FUSED_STENCILS: dict[str, Stencil] = {
    "smooth": FUSED_SMOOTH,
    "smooth+residual": FUSED_SMOOTH_RESIDUAL,
    "residual": FUSED_APPLY_RESIDUAL,
}


@dataclass(frozen=True)
class OperatorInfo:
    """Per-point cost characteristics of one V-cycle operation.

    ``flops_per_point`` / ``bytes_per_point`` are normalised per output
    point of the operation's own index space (fine points for stencil
    ops, coarse points for the inter-grid ops, matching how the paper
    derives Table IV).  ``paper_ai`` is the value printed in Table IV
    for cross-checking; small differences come down to flop-counting
    conventions and are reported, not hidden, by the bench.
    """

    name: str
    flops_per_point: int
    bytes_per_point: int
    paper_ai: float
    reads_per_point: int
    writes_per_point: int
    has_halo: bool

    @property
    def arithmetic_intensity(self) -> float:
        return self.flops_per_point / self.bytes_per_point


def _info_from_stencil(stencil: Stencil, paper_ai: float) -> OperatorInfo:
    an = analyze(stencil)
    return OperatorInfo(
        name=an.name,
        flops_per_point=an.flops_per_point,
        bytes_per_point=an.bytes_per_point,
        paper_ai=paper_ai,
        reads_per_point=len(an.input_grids),
        writes_per_point=len(an.output_grids),
        has_halo=bool(an.halo_grids),
    )


#: Metadata for every V-cycle operation keyed by paper name.
#:
#: restriction: one coarse point averages 8 fine points — 7 adds and one
#: multiply per coarse point; traffic is 8 fine reads + 1 coarse write.
#: interpolation+increment: one coarse point increments 8 fine points —
#: 8 adds; traffic is 1 coarse read + 8 fine reads + 8 fine writes.
OPERATOR_INFO: dict[str, OperatorInfo] = {
    "applyOp": _info_from_stencil(APPLY_OP, paper_ai=0.50),
    "smooth": _info_from_stencil(SMOOTH, paper_ai=0.125),
    "smooth+residual": _info_from_stencil(SMOOTH_RESIDUAL, paper_ai=0.15),
    "restriction": OperatorInfo(
        name="restriction",
        flops_per_point=8,
        bytes_per_point=(8 + 1) * 8,
        paper_ai=0.11,
        reads_per_point=8,
        writes_per_point=1,
        has_halo=False,
    ),
    "interpolation+increment": OperatorInfo(
        name="interpolation+increment",
        flops_per_point=8,
        bytes_per_point=(1 + 8 + 8) * 8,
        paper_ai=0.06,
        reads_per_point=9,
        writes_per_point=8,
        has_halo=False,
    ),
}

#: Operation order used in the paper's tables.
VCYCLE_OPERATIONS = (
    "applyOp",
    "smooth",
    "smooth+residual",
    "restriction",
    "interpolation+increment",
)


def build_variable_coefficient_apply_op() -> Stencil:
    """A 7-point operator with spatially varying coefficients.

    The paper notes the DSL handles "larger stencils, non-constant
    coefficients, conditionals" (Section III); this builder exercises
    the non-constant-coefficient path: the centre coefficient ``c0``
    and the per-axis neighbour coefficients ``cx``/``cy``/``cz`` are
    grids read alongside ``x``.  Compulsory traffic is therefore
    5 reads + 1 write = 48 B/point — the extra streams that make
    HPGMG-FV's variable-coefficient kernels slower than the paper's
    constant-coefficient proxy.
    """
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


def theoretical_ai_table() -> dict[str, tuple[float, float]]:
    """``{operation: (our theoretical AI, paper's Table IV value)}``."""
    return {
        name: (info.arithmetic_intensity, info.paper_ai)
        for name, info in OPERATOR_INFO.items()
    }


def fused_ai_table() -> dict[str, tuple[int, int, float]]:
    """Per fused pipeline: ``(effective flops/pt, bytes/pt, effective AI)``.

    The *effective* figures are CSE-deduplicated — the substituted
    ``applyOp`` subtree computes once however many consumer sites read
    it — and the byte count drops the intermediate's input stream, so
    the table quantifies exactly what fusion buys over the unfused
    pipeline (:func:`theoretical_ai_table` rows summed stage by stage).
    """
    out: dict[str, tuple[int, int, float]] = {}
    for stencil in FUSED_STENCILS.values():
        an = analyze(stencil)
        out[an.name] = (
            an.effective_flops_per_point,
            an.bytes_per_point,
            an.effective_arithmetic_intensity,
        )
    return out
