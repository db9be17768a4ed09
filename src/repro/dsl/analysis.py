"""Static analysis of DSL stencils.

Extracts the quantities the code generator and the performance models
need:

* per-grid read offset sets and the overall stencil radius (drives the
  halo gather width);
* FLOPs per output point (every ``+ - * /`` on non-constant operands
  counts as one flop — constant folding such as ``Const*Const`` is
  excluded);
* compulsory memory traffic per point: 8 bytes for each distinct grid
  read plus 8 for each grid written, the same streaming/compulsory-miss
  convention behind the paper's Table IV;
* repeated subexpressions (the *array common subexpressions* the vector
  code generator buffers instead of recomputing).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.dsl.ast import BinOp, Const, ConstRef, Expr, GridRef, Stencil

ITEMSIZE = 8  # double precision throughout, as in the paper


def _walk(expr: Expr):
    """Yield every node of an expression tree (pre-order)."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, BinOp):
            stack.append(node.lhs)
            stack.append(node.rhs)


def offsets_by_grid(stencil: Stencil) -> dict[str, set[tuple[int, int, int]]]:
    """Read offsets used per input grid, over all assignments."""
    out: dict[str, set[tuple[int, int, int]]] = {}
    for a in stencil.assignments:
        for node in _walk(a.expr):
            if isinstance(node, GridRef):
                out.setdefault(node.grid, set()).add(node.offsets)
    return out


def stencil_radius(stencil: Stencil) -> int:
    """Maximum absolute read offset over all grids and dimensions."""
    radius = 0
    for offsets in offsets_by_grid(stencil).values():
        for o in offsets:
            radius = max(radius, max(abs(c) for c in o))
    return radius


def _is_const(expr: Expr) -> bool:
    return isinstance(expr, (Const, ConstRef))


def flops_per_point(stencil: Stencil) -> int:
    """Floating-point operations per output point.

    Operations between two compile-time/runtime constants are folded
    (not counted); everything else counts one flop per ``BinOp``.
    """
    flops = 0
    for a in stencil.assignments:
        for node in _walk(a.expr):
            if isinstance(node, BinOp) and not (
                _is_const(node.lhs) and _is_const(node.rhs)
            ):
                flops += 1
    return flops


def effective_flops_per_point(stencil: Stencil) -> int:
    """FLOPs per output point after array-CSE hoisting.

    The vector code generator computes each distinct subexpression once
    and reuses its buffer, so repeated subtrees — in particular a
    producer expression substituted at several consumer sites by kernel
    fusion (:mod:`repro.dsl.fusion`) — cost their flops once, not once
    per occurrence.  For a stencil with no repeated subexpressions this
    equals :func:`flops_per_point`.
    """
    seen: set[tuple] = set()
    flops = 0
    for a in stencil.assignments:
        for node in _walk(a.expr):
            if isinstance(node, BinOp) and not (
                _is_const(node.lhs) and _is_const(node.rhs)
            ):
                k = node.key()
                if k not in seen:
                    seen.add(k)
                    flops += 1
    return flops


def bytes_per_point(stencil: Stencil) -> int:
    """Compulsory DRAM traffic per output point, in bytes.

    Each distinct grid read streams in once (halo rereads amortise to
    zero for large grids) and each grid written streams out once.  A
    grid that is both read and written (e.g. ``x`` in ``smooth``)
    contributes to both.  This is the infinite-cache bound the paper's
    theoretical arithmetic intensities assume.
    """
    reads = set(offsets_by_grid(stencil))
    writes = set(stencil.output_grids)
    return ITEMSIZE * (len(reads) + len(writes))


def arithmetic_intensity(stencil: Stencil) -> float:
    """Theoretical FLOP:byte ratio (Table IV's quantity)."""
    return flops_per_point(stencil) / bytes_per_point(stencil)


def effective_arithmetic_intensity(stencil: Stencil) -> float:
    """FLOP:byte ratio as generated: CSE-deduplicated flops over the
    compulsory traffic.  For fused pipelines this is the figure the
    engine actually achieves — the intermediate grid never round-trips
    through DRAM as an input stream and shared subtrees compute once."""
    return effective_flops_per_point(stencil) / bytes_per_point(stencil)


def common_subexpressions(stencil: Stencil) -> list[tuple]:
    """Structural keys of non-trivial subexpressions used more than once.

    Grid references repeated across statements (``Ax`` and ``b`` in
    ``smooth+residual``) and repeated compound terms are returned in
    deterministic first-appearance order; the code generator hoists
    each into a buffer, mirroring BrickLib's array-common-subexpression
    reuse.  A repeated term counts at its root only: what it is built
    from is evaluated once inside its buffer and needs none of its own
    (a name on every intermediate would also keep NumPy from reusing a
    temporary for the next operation of a chain).
    """
    counts: Counter[tuple] = Counter()
    for a in stencil.assignments:
        stack = [a.expr]
        while stack:
            node = stack.pop()
            if isinstance(node, (Const, ConstRef)):
                continue  # scalars are free; no buffer needed
            k = node.key()
            counts[k] += 1
            if counts[k] == 1 and isinstance(node, BinOp):
                stack += (node.rhs, node.lhs)
    return [k for k, c in counts.items() if c > 1]


@dataclass(frozen=True)
class StencilAnalysis:
    """All static properties of a stencil in one record."""

    name: str
    radius: int
    flops_per_point: int
    bytes_per_point: int
    arithmetic_intensity: float
    effective_flops_per_point: int
    effective_arithmetic_intensity: float
    input_grids: tuple[str, ...]
    output_grids: tuple[str, ...]
    halo_grids: tuple[str, ...]
    const_names: tuple[str, ...]
    offsets: dict[str, frozenset[tuple[int, int, int]]] = field(repr=False)

    @property
    def points_per_flop_denominator(self) -> int:  # pragma: no cover - alias
        return self.flops_per_point

    def bytes_per_point_at(self, itemsize: int) -> int:
        """Compulsory traffic per point for fields of ``itemsize`` bytes
        per value; ``bytes_per_point`` is the double-precision figure
        (every grid read streams in once, every grid written out once)."""
        return itemsize * (len(self.input_grids) + len(self.output_grids))


def analyze(stencil: Stencil) -> StencilAnalysis:
    """Run all analyses over a stencil."""
    offsets = offsets_by_grid(stencil)
    halo = tuple(
        sorted(g for g, offs in offsets.items() if any(o != (0, 0, 0) for o in offs))
    )
    const_names = []
    for a in stencil.assignments:
        for node in _walk(a.expr):
            if isinstance(node, ConstRef) and node.name not in const_names:
                const_names.append(node.name)
    return StencilAnalysis(
        name=stencil.name,
        radius=stencil_radius(stencil),
        flops_per_point=flops_per_point(stencil),
        bytes_per_point=bytes_per_point(stencil),
        arithmetic_intensity=arithmetic_intensity(stencil),
        effective_flops_per_point=effective_flops_per_point(stencil),
        effective_arithmetic_intensity=effective_arithmetic_intensity(stencil),
        input_grids=tuple(sorted(offsets)),
        output_grids=stencil.output_grids,
        halo_grids=halo,
        const_names=tuple(const_names),
        offsets={g: frozenset(o) for g, o in offsets.items()},
    )
