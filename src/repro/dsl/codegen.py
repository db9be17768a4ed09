"""Code generation for DSL stencils: NumPy vector kernels, native dispatch.

``generate_source`` turns a :class:`~repro.dsl.ast.Stencil` into the
source of a Python function that evaluates the stencil over *all*
bricks of a field in one batch of vectorised NumPy operations.  This
mirrors BrickLib's vector code generator:

* the brick dimensions are collapsed into NumPy's contiguous inner axes
  (the *vector folding* of Yount [31] — one logical vector spans the
  whole brick);
* repeated subexpressions are hoisted into buffers once and reused
  (*array common subexpression* elimination, Deitz et al. [33]);
* halo reads go through the extended per-brick blocks produced by
  :func:`repro.bricks.halo.gather_extended`, i.e. through the brick
  adjacency indirection rather than a padded array.

Statements are compute-then-store: every right-hand side is fully
evaluated before any output grid is written, so fused kernels such as
``smooth+residual`` see consistent pre-update values.

:meth:`CompiledKernel.apply` runs the stencil's native C kernel
(:mod:`repro.dsl.native`, the second emission target of the same AST)
whenever one can be had and the fields are packed arrays of one dtype;
the NumPy kernels generated here run everywhere else, produce the same
bytes, and are the oracle the native kernels are tested against.
"""

from __future__ import annotations

import io

import numpy as np

from repro.bricks.bricked_array import BrickedArray
from repro.bricks.halo import gather_extended
from repro.dsl import native
from repro.dsl.analysis import StencilAnalysis, analyze, common_subexpressions
from repro.dsl.ast import BinOp, Const, ConstRef, Expr, GridRef, Stencil

_KERNEL_CACHE: dict[tuple, "CompiledKernel"] = {}


class _Emitter:
    """Expression-tree to NumPy-source translator with CSE hoisting."""

    def __init__(
        self,
        halo_grids: frozenset[str],
        radius: int,
        brick_dim: int,
        hoisted: set[tuple],
        lines: list[str],
    ) -> None:
        self.halo_grids = halo_grids
        self.radius = radius
        self.brick_dim = brick_dim
        self.hoisted = hoisted
        self.lines = lines
        self.defined: dict[tuple, str] = {}
        self._counter = 0

    def _temp(self) -> str:
        name = f"_t{self._counter}"
        self._counter += 1
        return name

    def _grid_slice(self, ref: GridRef) -> str:
        if ref.grid in self.halo_grids:
            r, B = self.radius, self.brick_dim
            parts = ", ".join(
                f"{r + o}:{r + o + B}" for o in ref.offsets
            )
            return f"bufs[{ref.grid!r}][:, {parts}]"
        if ref.offsets != (0, 0, 0):
            raise AssertionError(
                f"grid {ref.grid} read at {ref.offsets} but not marked as a halo grid"
            )
        return f"bufs[{ref.grid!r}]"

    def emit(self, node: Expr) -> str:
        """Return a source fragment for ``node``, hoisting CSE temps."""
        key = node.key()
        if key in self.defined:
            return self.defined[key]
        text = self._render(node)
        if key in self.hoisted:
            name = self._temp()
            self.lines.append(f"    {name} = {text}")
            self.defined[key] = name
            return name
        return text

    def _render(self, node: Expr) -> str:
        if isinstance(node, Const):
            return repr(node.value)
        if isinstance(node, ConstRef):
            return f"_c_{node.name}"
        if isinstance(node, GridRef):
            return self._grid_slice(node)
        if isinstance(node, BinOp):
            lhs = self.emit(node.lhs)
            rhs = self.emit(node.rhs)
            return f"({lhs} {node.op} {rhs})"
        raise TypeError(f"cannot generate code for {type(node).__name__}")


def generate_source(stencil: Stencil, brick_dim: int) -> str:
    """Generate the kernel source for ``stencil`` on ``brick_dim`` bricks.

    The generated function has signature ``kernel(bufs, consts, outs)``
    where ``bufs`` maps each input grid to its extended array (halo
    grids) or raw brick storage (pointwise grids), ``consts`` maps
    ``ConstRef`` names to scalars, and ``outs`` maps output grid names
    to raw brick storage written in place.
    """
    an = analyze(stencil)
    hoisted = set(common_subexpressions(stencil))
    lines: list[str] = []
    buf = io.StringIO()
    buf.write("def kernel(bufs, consts, outs):\n")
    buf.write(f'    """Generated from stencil {stencil.name!r}; do not edit."""\n')
    for cname in an.const_names:
        buf.write(f"    _c_{cname} = consts[{cname!r}]\n")

    emitter = _Emitter(
        halo_grids=frozenset(an.halo_grids),
        radius=an.radius,
        brick_dim=brick_dim,
        hoisted=hoisted,
        lines=lines,
    )
    rhs_fragments = []
    for idx, a in enumerate(stencil.assignments):
        frag = emitter.emit(a.expr)
        name = f"_rhs{idx}"
        lines.append(f"    {name} = {frag}")
        rhs_fragments.append(name)
    for line in lines:
        buf.write(line + "\n")
    for idx, a in enumerate(stencil.assignments):
        buf.write(f"    outs[{a.target.grid!r}][...] = _rhs{idx}\n")
    return buf.getvalue()


def _scratch(workspace: dict | None, key, shape, dtype) -> np.ndarray:
    """The buffer kept under ``key`` in the caller's workspace (made on
    first use; a fresh one when there is no workspace)."""
    buf = workspace.get(key) if workspace is not None else None
    if buf is None:
        buf = np.empty(shape, dtype=dtype)
        if workspace is not None:
            workspace[key] = buf
    return buf


class CompiledKernel:
    """A DSL stencil compiled to a vectorised NumPy kernel.

    Instances carry the generated source (``.source``), the static
    analysis (``.analysis``), and an :meth:`apply` method that runs the
    stencil over all bricks of the supplied fields — through the native
    C kernel when the fields qualify (see :meth:`_apply_native`), else
    by orchestrating the halo gather and the NumPy kernel.
    """

    def __init__(self, stencil: Stencil, brick_dim: int) -> None:
        self.stencil = stencil
        self.brick_dim = int(brick_dim)
        self.analysis: StencilAnalysis = analyze(stencil)
        if self.analysis.radius > brick_dim:
            raise ValueError(
                f"stencil radius {self.analysis.radius} exceeds brick "
                f"dimension {brick_dim}"
            )
        self.source = generate_source(stencil, brick_dim)
        self._fn = self._compile(self.source)
        #: every grid apply() must be handed (hot-path validation list)
        self._needed_grids = native.field_order(self.analysis)
        #: dtype char -> (backend, native kernel or the reason there is
        #: none); built or loaded the first time such fields are applied
        self._native: dict[str, tuple] = {}

    def _compile(self, source: str):
        namespace: dict = {"np": np}
        exec(compile(source, f"<stencil:{self.stencil.name}>", "exec"), namespace)
        return namespace["kernel"]

    def apply(
        self,
        fields: dict[str, BrickedArray],
        consts: dict[str, float] | None = None,
        workspace: dict | None = None,
        sweeps: int = 1,
    ) -> None:
        """Evaluate the stencil over every brick (interior and ghost).

        Parameters
        ----------
        fields:
            Maps every input and output grid name to its field.  All
            fields must share a grid with the kernel's brick dimension.
        consts:
            Values for the stencil's ``ConstRef`` parameters.
        workspace:
            Optional dict (owned by the caller) reused across calls to
            avoid reallocating extended halo buffers.
        sweeps:
            Apply the stencil this many times in succession; every
            field ends exactly as after that many single applies.  The
            native kernel runs the whole window in one call (and moves
            only the bytes that survive it, see
            :func:`repro.dsl.native.generate_c_source`).
        """
        if sweeps < 1:
            raise ValueError(f"sweeps must be at least 1: {sweeps}")
        consts = consts or {}
        grid = self._validate(fields, consts)
        if self._apply_native(fields, consts, workspace, grid, sweeps):
            return
        for _ in range(sweeps):
            self._apply_numpy(fields, consts, workspace, grid)

    def _apply_numpy(
        self, fields: dict[str, BrickedArray], consts: dict, workspace, grid
    ) -> None:
        """One application through the halo gather and the NumPy kernel."""
        r = self.analysis.radius
        bufs: dict[str, np.ndarray] = {}
        for g in self.analysis.input_grids:
            f = fields[g]
            if g not in self.analysis.halo_grids:
                bufs[g] = f.data
                continue
            ext = grid.brick_dim + 2 * r
            shape = (grid.num_slots, ext, ext, ext)
            buf = _scratch(workspace, (g, shape, f.data.dtype), shape, f.data.dtype)
            bufs[g] = gather_extended(f, r, out=buf)
        outs = {g: fields[g].data for g in self.analysis.output_grids}
        self._fn(bufs, consts, outs)

    def native_kernel(self, backend, dtype: np.dtype):
        """This stencil's native kernel for ``dtype`` fields under
        ``backend`` — or the reason there is none (a string)."""
        entry = self._native.get(dtype.char)
        if entry is None or entry[0] is not backend:
            entry = (backend, native.load_kernel(backend, self, dtype))
            self._native[dtype.char] = entry
        return entry[1]

    def _apply_native(
        self, fields: dict[str, BrickedArray], consts: dict, workspace, grid,
        sweeps: int,
    ) -> bool:
        """Run ``sweeps`` applications in one call of the native kernel
        if these fields qualify; ``False`` (with the reason noted once)
        sends the caller down the NumPy path.

        The choice reads observable state only: a usable backend
        (compiler, cffi, cache directory), Python-float constants, and
        fields that are packed C-contiguous arrays of one dtype whose
        outputs alias nothing.  The binding — or the refusal — is kept
        in ``workspace`` and reused while the fields still hold the same
        arrays.
        """
        backend = native.resolve_backend()
        if backend.reason is not None:
            native.note_fallback(backend.reason)
            return False
        values = [consts[name] for name in self.analysis.const_names]
        for value in values:
            if type(value) is not float:
                native.note_fallback("NumPy-scalar or non-float constants")
                return False
        arrays = [fields[g].data for g in self._needed_grids]
        call = workspace.get(self) if workspace is not None else None
        if call is None or not call.matches(backend, grid, arrays):
            call = native.bind(backend, self, grid, arrays, workspace)
            if workspace is not None:
                workspace[self] = call
        if call.reason is not None:
            native.note_fallback(call.reason)
            return False
        call.run(values, sweeps)
        return True

    def _validate(self, fields: dict[str, BrickedArray], consts: dict):
        """Argument checks of :meth:`apply`; returns the grid."""
        missing = [c for c in self.analysis.const_names if c not in consts]
        if missing:
            raise KeyError(f"missing constants for {self.stencil.name}: {missing}")
        absent = sorted(g for g in self._needed_grids if g not in fields)
        if absent:
            raise KeyError(f"missing fields for {self.stencil.name}: {absent}")
        grid = None
        for f in fields.values():
            if grid is None:
                grid = f.grid
            elif f.grid is not grid:
                raise ValueError("all fields must share one BrickGrid")
        if grid.brick_dim != self.brick_dim:
            raise ValueError(
                f"kernel compiled for brick_dim={self.brick_dim}, fields have "
                f"{grid.brick_dim}"
            )
        return grid

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompiledKernel({self.stencil.name!r}, brick_dim={self.brick_dim})"


def compile_stencil(stencil: Stencil, brick_dim: int) -> CompiledKernel:
    """Compile (with caching) a stencil for a given brick dimension.

    Two cache layers: a per-object dict on the stencil (hot path — no
    hashing of the structural key, which for fused pipelines is large)
    and the global structural-key cache, so congruent stencil objects
    still share one compiled kernel.
    """
    cache = stencil.__dict__.get("_kernels")
    if cache is None:
        cache = stencil._kernels = {}
    kernel = cache.get(brick_dim)
    if kernel is None:
        key = (stencil.key(), int(brick_dim))
        kernel = _KERNEL_CACHE.get(key)
        if kernel is None:
            kernel = CompiledKernel(stencil, brick_dim)
            _KERNEL_CACHE[key] = kernel
        cache[brick_dim] = kernel
    return kernel
