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

import contextlib
import io

import numpy as np

from repro.bricks.bricked_array import BrickedArray
from repro.bricks.halo import gather_extended
from repro.bricks.halo_plan import (
    gather_planned,
    offset_plan_for,
    plan_for,
    refresh_shell,
)
from repro.dsl import native
from repro.dsl.analysis import StencilAnalysis, analyze, common_subexpressions
from repro.dsl.ast import BinOp, Const, ConstRef, Expr, GridRef, Stencil

_KERNEL_CACHE: dict[tuple, "CompiledKernel"] = {}

#: reusable no-op context for untraced split applies
_NULL_CTX = contextlib.nullcontext()


class _Emitter:
    """Expression-tree to NumPy-source translator with CSE hoisting."""

    def __init__(
        self,
        halo_grids: frozenset[str],
        radius: int,
        brick_dim: int,
        hoisted: set[tuple],
        lines: list[str],
        offset_reads: bool = False,
    ) -> None:
        self.halo_grids = halo_grids
        self.radius = radius
        self.brick_dim = brick_dim
        self.hoisted = hoisted
        self.lines = lines
        self.offset_reads = offset_reads
        self.defined: dict[tuple, str] = {}
        self._counter = 0

    def _temp(self) -> str:
        name = f"_t{self._counter}"
        self._counter += 1
        return name

    def _grid_slice(self, ref: GridRef) -> str:
        if ref.grid in self.halo_grids:
            if self.offset_reads:
                return f"bufs[{offset_buf_name(ref.grid, ref.offsets)!r}]"
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


def offset_buf_name(grid: str, offsets: tuple[int, int, int]) -> str:
    """``bufs`` key of one grid's contiguous per-offset block."""
    return f"{grid}@{offsets[0]},{offsets[1]},{offsets[2]}"


def generate_source(
    stencil: Stencil, brick_dim: int, offset_reads: bool = False
) -> str:
    """Generate the kernel source for ``stencil`` on ``brick_dim`` bricks.

    The generated function has signature ``kernel(bufs, consts, outs)``
    where ``bufs`` maps each input grid to its extended array (halo
    grids) or raw brick storage (pointwise grids), ``consts`` maps
    ``ConstRef`` names to scalars, and ``outs`` maps output grid names
    to raw brick storage written in place.

    With ``offset_reads`` each halo-grid read instead targets a
    contiguous per-offset block (key :func:`offset_buf_name`) supplied
    by an :class:`~repro.bricks.halo_plan.OffsetGatherPlan` — same
    values, same operation order, contiguous operands.
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
        offset_reads=offset_reads,
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
        #: offset-read variant for planned fields: every halo operand is
        #: a contiguous per-offset block instead of an extended slice
        self.offset_source = generate_source(stencil, brick_dim, offset_reads=True)
        self._offset_fn = self._compile(self.offset_source)
        #: deterministic per-grid read offsets driving the gather plans,
        #: with their bufs keys precomputed ((offset, key) rows; the
        #: centre read, if any, is split out — it may alias storage)
        self._offset_rows = {}
        for g in self.analysis.halo_grids:
            offs = tuple(sorted(self.analysis.offsets[g]))
            planned = tuple(o for o in offs if o != (0, 0, 0))
            self._offset_rows[g] = (
                (0, 0, 0) in offs,
                offset_buf_name(g, (0, 0, 0)),
                planned,
                tuple(offset_buf_name(g, o) for o in planned),
            )
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
        halo = self.analysis.halo_grids
        use_offsets = bool(halo) and all(
            fields[g].planned_gather and self._offset_ready(fields[g])
            for g in halo
        )
        bufs: dict[str, np.ndarray] = {}
        for g in self.analysis.input_grids:
            f = fields[g]
            if g in halo:
                if use_offsets:
                    self._offset_bufs(g, f, grid, workspace, bufs)
                    continue
                if f.has_resident_halo and f.halo_radius == r:
                    # halo-resident layout: the extended storage IS the
                    # kernel buffer — copy only the 26 shell regions
                    refresh_shell(f)
                    bufs[g] = f.ext_data
                    continue
                ext = grid.brick_dim + 2 * r
                shape = (grid.num_slots, ext, ext, ext)
                dtype = f.data.dtype
                buf = None
                if workspace is not None:
                    key = (g, shape, dtype)
                    buf = workspace.get(key)
                    if buf is None:
                        buf = np.empty(shape, dtype=dtype)
                        workspace[key] = buf
                if f.planned_gather:
                    bufs[g] = gather_planned(f, r, out=buf)
                else:
                    bufs[g] = gather_extended(f, r, out=buf)
            else:
                bufs[g] = f.data
        outs = {g: fields[g].data for g in self.analysis.output_grids}
        if use_offsets:
            self._offset_fn(bufs, consts, outs)
        else:
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

    def apply_split(
        self,
        fields: dict[str, BrickedArray],
        consts: dict[str, float] | None = None,
        workspace: dict | None = None,
        *,
        partition,
        barrier,
        tracer=None,
        level: int | None = None,
    ) -> None:
        """Evaluate the stencil in two passes around a halo barrier.

        The *interior* pass (``partition.interior`` — bricks whose
        stencil footprint reads only owned bricks) is computed into
        scratch buffers while the halo exchange is still in flight;
        ``barrier()`` (typically ``HaloExchange.finish``) then completes
        the exchange, and the *shell* pass evaluates the remaining
        bricks against the fresh ghost values.  Both passes' results are
        stored only after the shell compute, so read-write grids (e.g.
        ``x`` in fused smoothers) are never observed half-updated —
        exactly the compute-then-store discipline of :meth:`apply`,
        stretched across the barrier.

        Each pass evaluates the same expression tree per element as the
        full-grid kernel, so the result is bit-identical to
        ``exchange(); apply()``.
        """
        consts = consts or {}
        grid = self._validate(fields, consts)
        native.note_fallback("split-phase (overlap) applies")
        if partition.num_slots != grid.num_slots:
            raise ValueError(
                f"partition covers {partition.num_slots} slots, grid has "
                f"{grid.num_slots}"
            )

        def span(name: str, n: int):
            if tracer is None:
                return _NULL_CTX
            attrs = {"slots": n}
            if level is not None:
                attrs["l"] = level
            return tracer.span(name, **attrs)

        interior, shell = partition.interior, partition.shell
        with span("interior", int(interior.size)):
            pre = self._compute_subset(fields, consts, workspace, partition, "interior")
        barrier()
        with span("shell", int(shell.size)):
            post = self._compute_subset(fields, consts, workspace, partition, "shell")
            for g in self.analysis.output_grids:
                out = fields[g].data
                if shell.size:
                    out[shell] = post[g]
                if interior.size:
                    out[interior] = pre[g]

    def _compute_subset(
        self,
        fields: dict[str, BrickedArray],
        consts: dict[str, float],
        workspace: dict | None,
        partition,
        which: str,
    ) -> dict[str, np.ndarray]:
        """Run the kernel over one pass's slots into scratch outputs.

        Operand gathers are restricted to the subset through the
        partition's cached index tables; values per slot are identical
        to the full-grid gathers, so the pass computes exactly the
        full kernel's results for its slots.
        """
        sel = partition.select(which)
        n = int(sel.size)
        r = self.analysis.radius
        halo = self.analysis.halo_grids
        use_offsets = bool(halo) and all(
            fields[g].planned_gather and self._offset_ready(fields[g])
            for g in halo
        )
        bufs: dict[str, np.ndarray] = {}
        for g in self.analysis.input_grids:
            f = fields[g]
            if g in halo:
                if use_offsets:
                    self._offset_bufs_subset(g, f, workspace, bufs, partition, which)
                else:
                    bufs[g] = self._gather_subset(g, f, r, workspace, partition, which)
            else:
                bufs[g] = f.data[sel]
        B = self.brick_dim
        outs: dict[str, np.ndarray] = {}
        for g in self.analysis.output_grids:
            dtype = fields[g].data.dtype
            buf = None
            if workspace is not None:
                key = (g, "split-out", which, n, dtype)
                buf = workspace.get(key)
            if buf is None:
                buf = np.empty((n, B, B, B), dtype=dtype)
                if workspace is not None:
                    workspace[key] = buf
            outs[g] = buf
        if n:
            if use_offsets:
                self._offset_fn(bufs, consts, outs)
            else:
                self._fn(bufs, consts, outs)
        return outs

    def _offset_bufs_subset(
        self,
        g: str,
        f: BrickedArray,
        workspace: dict | None,
        bufs: dict[str, np.ndarray],
        partition,
        which: str,
    ) -> None:
        """Subset variant of :meth:`_offset_bufs`: per-offset blocks
        restricted to one pass's slots, one ``np.take`` per grid."""
        has_center, center_key, planned, planned_keys = self._offset_rows[g]
        sel = partition.select(which)
        source = self._packed_source(g, f, workspace)
        if has_center:
            bufs[center_key] = source[sel]
        if not planned:
            return
        plan = offset_plan_for(f.grid, planned, 0)
        table = partition.offset_subset(plan, which)
        n = int(sel.size)
        block = None
        if workspace is not None:
            bkey = (g, "split-offsets", which, len(planned), n, f.dtype)
            block = workspace.get(bkey)
        if block is None:
            block = np.empty(
                (len(planned), n) + (self.brick_dim,) * 3, dtype=f.dtype
            )
            if workspace is not None:
                workspace[bkey] = block
        if n:
            np.take(
                source.reshape(-1),
                table,
                out=block.reshape(len(planned), n, -1),
                mode="clip",
            )
        for k, key in enumerate(planned_keys):
            bufs[key] = block[k]

    def _gather_subset(
        self,
        g: str,
        f: BrickedArray,
        r: int,
        workspace: dict | None,
        partition,
        which: str,
    ) -> np.ndarray:
        """Extended-block gather restricted to one pass's slots.

        Sources the packed interior view (never the resident shell), so
        the values match a full :class:`HaloPlan` gather row-for-row —
        which is itself bit-identical to ``gather_extended``.
        """
        plan = plan_for(f.grid, r)
        sel = partition.select(which)
        n = int(sel.size)
        E = plan.ext
        data = f.data
        buf = None
        if workspace is not None:
            key = (g, "split-ext", which, n, E, data.dtype)
            buf = workspace.get(key)
        if buf is None:
            buf = np.empty((n, E, E, E), dtype=data.dtype)
            if workspace is not None:
                workspace[key] = buf
        if n == 0:
            return buf
        flat, nbr = partition.halo_subset(plan, which)
        if data.flags.c_contiguous:
            np.take(data.reshape(-1), flat, out=buf.reshape(n, -1))
        else:
            buf.reshape(n, -1)[...] = data.reshape(data.shape[0], -1)[
                nbr, plan.cell_all
            ]
        return buf

    def _validate(self, fields: dict[str, BrickedArray], consts: dict):
        """Shared apply/apply_split argument checks; returns the grid."""
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

    @staticmethod
    def _offset_ready(f: BrickedArray) -> bool:
        """Planned per-offset gathers need a flat (contiguous) source."""
        if f.has_resident_halo:
            return f.ext_data.flags.c_contiguous
        return f.data.flags.c_contiguous

    def _offset_bufs(
        self,
        g: str,
        f: BrickedArray,
        grid,
        workspace: dict | None,
        bufs: dict[str, np.ndarray],
    ) -> None:
        """Materialise contiguous per-offset blocks for one halo grid.

        One ``np.take`` per grid; for halo-resident fields the take
        sources neighbour *interiors* of the extended storage directly,
        so the shell never needs refreshing on this path.  For packed
        fields the centre block is the field's own storage — no copy.
        """
        has_center, center_key, planned, planned_keys = self._offset_rows[g]
        source = self._packed_source(g, f, workspace)
        if has_center:
            bufs[center_key] = source
        if not planned:
            return
        plan = offset_plan_for(f.grid, planned, 0)
        block = None
        if workspace is not None:
            bkey = (g, "offsets", len(planned), f.data.shape, f.dtype)
            block = workspace.get(bkey)
            if block is None:
                block = np.empty((len(planned),) + f.data.shape, dtype=f.dtype)
                workspace[bkey] = block
        block = plan.gather(source, out=block)
        for k, key in enumerate(planned_keys):
            bufs[key] = block[k]

    @staticmethod
    def _packed_source(g: str, f: BrickedArray, workspace: dict | None):
        """Contiguous packed source for per-offset gathers.

        Halo-resident fields re-pack the (strided) interior once: the
        per-offset take then streams from a compact contiguous source,
        which beats both extended-slice operands and an ext-sourced
        take.  Packed fields are their own source — no copy.
        """
        if not f.has_resident_halo:
            return f.data
        source = None
        if workspace is not None:
            key = (g, "packed", f.data.shape, f.dtype)
            source = workspace.get(key)
            if source is None:
                source = np.empty(f.data.shape, dtype=f.dtype)
                workspace[key] = source
        else:
            source = np.empty(f.data.shape, dtype=f.dtype)
        np.copyto(source, f.data)
        return source

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
