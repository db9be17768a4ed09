"""Native C emission target for DSL stencils and the inter-grid
operators, loaded through cffi.

The NumPy generator (:mod:`repro.dsl.codegen`) evaluates a stencil as a
chain of whole-array operations: one temporary per binary operation and
a gathered copy of every halo operand.  This module emits, from the same
:class:`~repro.dsl.ast.Stencil` and
:class:`~repro.dsl.analysis.StencilAnalysis`, one C function per
``(stencil, brick_dim, dtype)`` that walks the storage **a brick at a
time**:

* the brick's ``(B + 2r)^3`` halo block is assembled in a stack buffer
  straight from the ``grid.adjacency`` neighbours (constant-size row
  ``memcpy``\\ s, only the directions the stencil reads, by one
  ``assemble_<grid>`` function every slot loop calls), so the halo
  lives in L1 and is never written to memory — the paper's fine-grain
  blocking argument applied to the host;
* the expression tree is evaluated per cell with the generator's CSE
  temporaries as scalar locals, in exactly the DSL's association order;
* statements stay compute-then-store: every right-hand side of a cell is
  evaluated before its stores, and an output that is also read through
  the halo (``x`` in the fused smoothers) is written to the other of
  two arrays, its storage and a staging array;
* the function takes a sweep count and runs a whole exchange window of
  successive applications in one call, moving only what survives it:
  the two arrays trade places every sweep (one copy back after an odd
  count) and outputs the stencil never reads (``Ax``, ``r``) are stored
  by the last sweep only;
* each sweep walks the interior bricks, then — on a grid with a ghost
  shell ``G`` cells deep — the ghost bricks of a per-grid table
  (:func:`slot_table`), each clipped to the box a later sweep can still
  read: after sweep ``k`` of a radius-``r`` stencil only ghost cells
  within ``D = G - (k + 1) r`` of the interior hold valid values, so
  the ghost loop computes those ``i``/``j`` rows (whole ``k`` rows),
  assembles only the neighbours' rows they read, and skips the shell
  when ``D <= 0`` — byte-identical, on every valid cell, to that many
  single applications.  Cells outside the box keep whatever the field
  or the zeroed staging array held: deterministic, and read by nothing.

The inter-grid operators — restriction and interpolation+increment,
the paper's "new operators in BrickLib for multigrid" — are emitted the
same way, one function per ``(operator, brick_dim, dtype)``
(:func:`generate_intergrid_source`), and reach each coarse brick's eight
children through a per-level-pair table instead of the adjacency;
:func:`bind_intergrid` binds one to a level pair's arrays once.  Their
calls are counted apart from the stencils' (``intergrid`` in
:func:`call_counts`).

Identity with the NumPy kernels, bit for bit: ``+ - * /`` are correctly
rounded in both; the C is fully parenthesised and compiled without any
fast-math option, so nothing is re-associated; ``-ffp-contract=off``
forbids fusing a multiply into an add; and Python-float constants are
cast to the field dtype before they meet a field value, as NumPy's weak
scalars are (constant-with-constant arithmetic stays in double, as
Python evaluates it).  Only a NaN's sign and payload are not pinned:
which NaN an add of two keeps follows operand order, which the compiler
may swap.  Kernels are built for the widest vector ISA the host runs
(:func:`vector_flags`), so a ``B = 8`` row of doubles is one AVX-512
register; never with ``-march=native``, which on a CPU with AVX512-FP16
sets ``FLT_EVAL_METHOD`` to 16 and trips the guard.

Nothing here runs at import: the compiler is probed, cffi imported and a
kernel compiled the first time a kernel is applied.  Shared objects are
cached in-process and on disk (``$XDG_CACHE_HOME/repro/kernels``, else
``~/.cache/repro/kernels``, else a private directory under
``tempfile.gettempdir()``), named by a hash of source, flags and
compiler version, and installed with ``os.replace`` — so only the first
process on a host compiles, and racing processes both succeed.  Delete
the directory to clear the cache.
"""

from __future__ import annotations

import hashlib
import importlib
import logging
import math
import os
import re
import shutil
import stat
import subprocess
import tempfile
import time

import numpy as np

from repro.bricks.brick_grid import DIRECTIONS
from repro.dsl.analysis import StencilAnalysis, common_subexpressions
from repro.dsl.ast import BinOp, Const, ConstRef, Expr, GridRef, Stencil

log = logging.getLogger(__name__)

#: compilers tried, in order
COMPILERS = ("cc", "gcc", "clang")

#: the flags that decide what a kernel computes: ``-ffp-contract=off``
#: and the absence of any fast-math option are what the bit-identity
#: rests on
FP_FLAGS = ("-O3", "-ffp-contract=off")

#: the flags every kernel is built with
CFLAGS = FP_FLAGS + ("-fPIC", "-shared")

#: the vector ISAs a kernel may be built for, widest first: the CPU
#: feature (NumPy's name for it) and the flags selecting it.  Neither
#: set defines ``__FMA__`` or a non-zero ``FLT_EVAL_METHOD``
VECTOR_ISAS = (
    ("AVX512F", ("-mavx512f", "-mprefer-vector-width=512")),
    ("AVX2", ("-mavx2",)),
)

#: the one signature every kernel exports (so one ``cdef`` serves all)
ENTRY_POINT = "repro_kernel"
_CDEF = (
    f"void {ENTRY_POINT}(int64_t, const int64_t *, void *const *, "
    "const double *, int64_t, const int64_t *, int64_t, int64_t, int64_t);"
)

#: per-brick halo blocks live on the C stack; kernels needing more than
#: this run through NumPy instead
STACK_BUDGET_BYTES = 1 << 20

_C_TYPES = {"d": "double", "f": "float"}


# ----------------------------------------------------------------------
# C emission
# ----------------------------------------------------------------------
def _c_double(value: float) -> str:
    """``value`` as an exact C double expression."""
    if math.isnan(value):
        return "((double)NAN)"
    if math.isinf(value):
        return "((double)INFINITY)" if value > 0 else "(-(double)INFINITY)"
    return f"({value.hex()})"


class _CEmitter:
    """Expression tree to C, mirroring ``codegen._Emitter``'s CSE.

    Every fragment carries whether it is a *scalar* (a Python float in
    the NumPy kernel: double arithmetic) or a field value (the field
    dtype ``T``); a scalar meeting a field value is cast to ``T`` first,
    which is NumPy's weak-scalar promotion.
    """

    def __init__(self, halo_grids, hoisted: set[tuple], lines: list[str]) -> None:
        self.halo_grids = halo_grids
        self.hoisted = hoisted
        self.lines = lines
        self.defined: dict[tuple, tuple[str, bool]] = {}

    def emit(self, node: Expr) -> tuple[str, bool]:
        """``(C fragment, is_scalar)`` for ``node``."""
        key = node.key()
        done = self.defined.get(key)
        if done is not None:
            return done
        text, scalar = self._render(node)
        if key in self.hoisted:
            name = f"t{len(self.defined)}"
            ctype = "double" if scalar else "T"
            self.lines.append(f"const {ctype} {name} = {text};")
            self.defined[key] = (name, scalar)
            return name, scalar
        return text, scalar

    def _render(self, node: Expr) -> tuple[str, bool]:
        if isinstance(node, Const):
            return _c_double(node.value), True
        if isinstance(node, ConstRef):
            return f"c_{node.name}", True
        if isinstance(node, GridRef):
            if node.grid in self.halo_grids:
                a, b, c = node.offsets
                return f"H_{node.grid}({a}, {b}, {c})", False
            return f"g_{node.grid}[cell]", False
        if isinstance(node, BinOp):
            lhs, lhs_scalar = self.emit(node.lhs)
            rhs, rhs_scalar = self.emit(node.rhs)
            if lhs_scalar and rhs_scalar:
                return f"({lhs} {node.op} {rhs})", True
            if lhs_scalar:
                lhs = f"(T){lhs}"
            if rhs_scalar:
                rhs = f"(T){rhs}"
            return f"({lhs} {node.op} {rhs})", False
        raise TypeError(f"cannot generate code for {type(node).__name__}")


def halo_directions(offsets) -> tuple[int, ...]:
    """Indices into ``DIRECTIONS`` of the neighbours a brick must read
    for ``offsets``: a read shifted along an axis reaches the brick
    itself and the neighbour on that side, never the opposite one."""
    needed = set()
    for off in offsets:
        reach = [(0,) if o == 0 else (0, 1 if o > 0 else -1) for o in off]
        needed.update(
            (a, b, c) for a in reach[0] for b in reach[1] for c in reach[2]
        )
    return tuple(i for i, d in enumerate(DIRECTIONS) if d in needed)


def _assembler(grid_name: str, offsets, B: int, r: int) -> list[str]:
    """A C function ``assemble_<grid>(h, in, nb, lo0, hi0, lo1, hi1)``
    filling the ``(B + 2r)^3`` halo block ``h`` from the adjacency
    neighbours ``nb`` in the array ``in``: per direction, constant-size
    row copies of the region that direction contributes, and only the
    directions the stencil's offsets reach and the box ``[lo0, hi0) x
    [lo1, hi1)`` (whole ``k`` rows) reads — a neighbour below along an
    axis only if the box starts within ``r`` of that face, one above
    only if it ends within ``r`` of it.  The interior passes the whole
    brick.  Emitted once and called from every slot loop, not inlined:
    the copies are most of a kernel's code."""
    E = B + 2 * r
    # per axis component: (block start, source start, extent)
    span = {-1: (0, B - r, r), 0: (r, 0, B), 1: (r + B, 0, r)}
    reaches = {-1: "lo{a} < R", 1: "hi{a} > B - R"}
    lines = [
        f"static void __attribute__((noinline)) assemble_{grid_name}(",
        "    T *restrict h, const T *restrict in, const int64_t *restrict nb,",
        "    int lo0, int hi0, int lo1, int hi1)",
        "{",
        "    (void)lo0; (void)hi0; (void)lo1; (void)hi1;",
    ]
    for di in halo_directions(offsets):
        d = DIRECTIONS[di]
        (d0, s0, n0), (d1, s1, n1), (d2, s2, n2) = (span[c] for c in d)
        guard = [reaches[c].format(a=a) for a, c in enumerate(d[:2]) if c]
        lines.append(
            "    "
            + (f"if ({' && '.join(guard)}) " if guard else "")
            + f"{{ const T *src = in + nb[{di}] * B3; "
            f"for (int i = 0; i < {n0}; ++i) for (int j = 0; j < {n1}; ++j) "
            f"memcpy(h + (({d0} + i) * {E} + ({d1} + j)) * {E} + {d2}, "
            f"src + (({s0} + i) * {B} + ({s1} + j)) * {B} + {s2}, "
            f"{n2} * sizeof(T)); }}"
        )
    return lines + ["}"]


def field_order(analysis: StencilAnalysis) -> tuple[str, ...]:
    """Grid names in the order a kernel's pointer table lists them."""
    return tuple(dict.fromkeys(analysis.input_grids + analysis.output_grids))


def staged_outputs(analysis: StencilAnalysis) -> tuple[str, ...]:
    """Outputs also read through the halo: another brick still needs
    their old values, so a sweep writes them to the other of two arrays
    (the field's storage and a staging array)."""
    return tuple(g for g in analysis.output_grids if g in analysis.halo_grids)


def deferred_outputs(analysis: StencilAnalysis) -> tuple[str, ...]:
    """Outputs the stencil never reads: every sweep overwrites them in
    full and nothing looks at them in between, so only the last sweep
    of a call stores them."""
    return tuple(g for g in analysis.output_grids if g not in analysis.input_grids)


def generate_c_source(
    stencil: Stencil, analysis: StencilAnalysis, brick_dim: int, dtype
) -> str:
    """The C translation unit for ``stencil`` on ``brick_dim`` bricks of
    ``dtype`` fields.

    Exports ``void repro_kernel(nslots, adjacency, fields, consts,
    sweeps, slots, ninner, nghost, depth)``: ``fields`` lists the
    storage pointers in :func:`field_order` followed by one staging
    pointer per :func:`staged_outputs` grid; ``consts`` lists
    ``analysis.const_names`` as doubles; ``slots`` is
    :func:`slot_table`'s ``ninner`` interior slots and ``nghost`` ghost
    rows, and ``depth`` the shell's depth in cells.  The call leaves
    every field, on every cell still valid after it (within ``depth -
    sweeps * r`` of the interior), as ``sweeps`` successive applications
    would: a staged output is read from one of its two arrays and
    written to the other, swapping each sweep (one copy back when
    ``sweeps`` is odd); a :func:`deferred_outputs` grid is stored by
    the last sweep only; every other output is read and written at the
    same cell, in place.
    """
    B, r = int(brick_dim), analysis.radius
    E = B + 2 * r
    order = field_order(analysis)
    staged = staged_outputs(analysis)
    deferred = deferred_outputs(analysis)
    outputs = set(analysis.output_grids)

    body: list[str] = []
    emitter = _CEmitter(
        frozenset(analysis.halo_grids), set(common_subexpressions(stencil)), body
    )
    stores, last_stores = [], []
    for idx, a in enumerate(stencil.assignments):
        text, scalar = emitter.emit(a.expr)
        body.append(f"const T rhs{idx} = {'(T)' if scalar else ''}{text};")
        target = a.target.grid
        dest = f"out_{target}" if target in staged else f"g_{target}"
        (last_stores if target in deferred else stores).append(
            f"{dest}[cell] = rhs{idx};"
        )

    def slot_loop(stores: list[str], ghost: bool = False) -> list[str]:
        """One sweep over the interior bricks — or, with ``ghost``, over
        the ghost bricks, each clipped to the box still valid after this
        sweep (whole ``k`` rows) — storing ``stores`` per cell."""
        if ghost:
            lines = [
                "if (D > 0) for (int64_t n = 0; n < nghost; ++n) {",
                "    const int64_t *row = ghost + 4 * n;",
                "    const int64_t s = row[0];",
                "    int lo0, hi0, lo1, hi1, lo2, hi2;",
                "    CLIP(row[1], lo0, hi0); CLIP(row[2], lo1, hi1); "
                "CLIP(row[3], lo2, hi2);",
                "    if (lo0 >= hi0 || lo1 >= hi1 || lo2 >= hi2) continue;",
            ]
        else:
            lines = [
                "for (int64_t n = 0; n < ninner; ++n) {",
                "    const int64_t s = slots[n];",
            ]
        if analysis.halo_grids:
            lines.append("    const int64_t *nb = adj + 27 * s;")
        (i0, i1), (j0, j1) = (
            (("lo0", "hi0"), ("lo1", "hi1")) if ghost else (("0", "B"), ("0", "B"))
        )
        for g in analysis.halo_grids:
            source = f"in_{g}" if g in staged else f"g_{g}"
            lines += [
                f"    T h_{g}[E * E * E];",
                f"    assemble_{g}(h_{g}, {source}, nb, {i0}, {i1}, {j0}, {j1});",
            ]
        lines += [
            f"    for (int i = {i0}; i < {i1}; ++i)",
            f"    for (int j = {j0}; j < {j1}; ++j)",
            "    for (int k = 0; k < B; ++k) {",
            "        const int64_t cell = s * B3 + (i * B + j) * B + k;",
        ]
        lines += ["        " + line for line in body + stores]
        return lines + ["    }", "}"]

    out = _preamble(f"stencil {stencil.name!r}", B, dtype) + [
        f"enum {{ B = {B}, R = {r}, E = {E}, B3 = {B ** 3} }};",
    ]
    for g in analysis.halo_grids:
        out.append(
            f"#define H_{g}(a, b, c) "
            f"h_{g}[((i + R + (a)) * E + (j + R + (b))) * E + (k + R + (c))]"
        )
    out += [
        # the cells [lo, hi) of a brick at ring offset o (in bricks; < 0
        # before the interior, > 0 after it) within depth D of it
        "#define CLAMP(v) ((v) < 0 ? 0 : (v) > B ? B : (v))",
        "#define CLIP(o, lo, hi) (lo = (o) < 0 ? CLAMP(-(o) * B - D) : 0, "
        "hi = (o) > 0 ? CLAMP(D - ((o) - 1) * B) : B)",
    ]
    for g in analysis.halo_grids:
        out += _assembler(g, analysis.offsets[g], B, r)
    out += [
        f"void {ENTRY_POINT}(int64_t nslots, const int64_t *restrict adj,",
        "                  void *const *fields, const double *consts,",
        "                  int64_t sweeps, const int64_t *restrict slots,",
        "                  int64_t ninner, int64_t nghost, int64_t depth)",
        "{",
        "    const int64_t *ghost = slots + ninner;",
    ]
    for idx, g in enumerate(order):
        # the two arrays of a staged output trade places every sweep:
        # only the per-sweep views below may promise not to alias
        qualifier = (
            "T *" if g in staged
            else "T *restrict " if g in outputs
            else "const T *restrict "
        )
        out.append(f"    {qualifier}g_{g} = fields[{idx}];")
    for idx, g in enumerate(staged):
        out.append(f"    T *s_{g} = fields[{len(order) + idx}];")
    for idx, name in enumerate(analysis.const_names):
        out.append(f"    const double c_{name} = consts[{idx}];")
    out.append("    for (int64_t sweep = 0; sweep < sweeps; ++sweep) {")
    for g in staged:
        out += [
            f"        const T *restrict in_{g} = (sweep & 1) ? s_{g} : g_{g};",
            f"        T *restrict out_{g} = (sweep & 1) ? g_{g} : s_{g};",
        ]
    if last_stores:
        # the loop is written out twice, not branched per cell: the
        # compiler need not unswitch it to vectorise either copy
        out.append("        if (sweep + 1 < sweeps) {")
        out += ["            " + line for line in slot_loop(stores)]
        out.append("        } else {")
        out += ["            " + line for line in slot_loop(stores + last_stores)]
        out.append("        }")
    else:
        out += ["        " + line for line in slot_loop(stores)]
    # ghost cells deeper than D hold what no later sweep may read; the
    # ghost loop is written out once, its last-sweep stores branched
    out.append("        const int64_t D = depth - (sweep + 1) * R;")
    ghost_stores = stores + (
        ["if (sweep + 1 == sweeps) { " + " ".join(last_stores) + " }"]
        if last_stores else []
    )
    out += ["        " + line for line in slot_loop(ghost_stores, ghost=True)]
    out.append("    }")
    for g in staged:
        out.append(
            f"    if (sweeps & 1) memcpy(g_{g}, s_{g}, (size_t)nslots * B3 * sizeof(T));"
        )
    out += ["}", ""]
    return "\n".join(out)


def _preamble(what: str, brick_dim: int, dtype) -> list[str]:
    """The lines every generated translation unit opens with."""
    B = int(brick_dim)
    return [
        f"/* Generated from {what} "
        f"(brick_dim={B}, {np.dtype(dtype).name}); do not edit. */",
        "#include <float.h>",
        "#include <math.h>",
        "#include <stdint.h>",
        "#include <string.h>",
        "#if defined(FLT_EVAL_METHOD) && FLT_EVAL_METHOD != 0",
        '#error "excess floating-point precision: results would differ from NumPy"',
        "#endif",
        f"typedef {_C_TYPES[np.dtype(dtype).char]} T;",
    ]


#: the inter-grid operators with a native kernel, each taking ``fields =
#: [source, destination]``: restriction reads the fine residual and
#: writes the coarse right-hand side, interpolation+increment reads the
#: coarse correction and increments the fine one
INTERGRID_OPS = ("restriction", "interpolation+increment")

#: the fine cell ``(x, y, z)`` of the ``2B``-cube under one coarse
#: brick, through the brick's eight child pointers
_CHILD_CELL = (
    "#define F(x, y, z) child[(((x) / B) * 2 + (y) / B) * 2 + (z) / B]"
    "[(((x) % B) * B + (y) % B) * B + (z) % B]"
)


def generate_intergrid_source(op: str, brick_dim: int, dtype) -> str:
    """The C translation unit for inter-grid operator ``op`` on
    ``brick_dim`` bricks of ``dtype`` fields.

    Exports the stencil kernels' signature: ``nslots`` coarse interior
    bricks, ``adjacency`` their ``(nslots, 9)`` table — the coarse slot,
    then the slots of its children, child ``(a, b, c)`` in column
    ``1 + 4a + 2b + c`` — and ``fields = [source, destination]`` as in
    :data:`INTERGRID_OPS`; the arguments after ``fields`` are unused.
    Restriction sums a coarse cell's eight children in one association,
    ``(((p00 + p01) + p10) + p11) / 8`` where ``pab`` adds the two
    children ``(2I + a, 2J + b, 2K)`` and ``(2I + a, 2J + b, 2K + 1)``
    — :func:`repro.gmg.operators.average_children`'s order, whatever
    the shape of the level — and stores a NaN average as the quiet NaN
    ``NAN``, as that function does.
    """
    if op not in INTERGRID_OPS:
        raise ValueError(f"no native inter-grid operator {op!r}")
    B = int(brick_dim)
    # restriction reads the children and writes the coarse brick;
    # interpolation the other way round
    restrict = op == "restriction"
    out = _preamble(f"inter-grid operator {op!r}", B, dtype) + [
        f"enum {{ B = {B}, B3 = {B ** 3} }};",
        _CHILD_CELL,
        f"void {ENTRY_POINT}(int64_t nslots, const int64_t *restrict table,",
        "                  void *const *fields, const double *consts,",
        "                  int64_t sweeps, const int64_t *slots,",
        "                  int64_t ninner, int64_t nghost, int64_t depth)",
        "{",
        "    (void)consts; (void)sweeps; (void)slots;",
        "    (void)ninner; (void)nghost; (void)depth;",
        "    const T *restrict src = fields[0];",
        "    T *restrict dst = fields[1];",
        "    for (int64_t s = 0; s < nslots; ++s) {",
        "        const int64_t *t = table + 9 * s;",
        f"        {'T' if restrict else 'const T'} *coarse = "
        f"{'dst' if restrict else 'src'} + t[0] * B3;",
        f"        {'const T' if restrict else 'T'} *child[8];",
        "        for (int c = 0; c < 8; ++c) child[c] = "
        f"{'src' if restrict else 'dst'} + t[1 + c] * B3;",
    ]
    if restrict:
        out += [
            "        for (int i = 0; i < B; ++i)",
            "        for (int j = 0; j < B; ++j)",
            "        for (int k = 0; k < B; ++k) {",
        ]
        for a in (0, 1):
            for b in (0, 1):
                x, y = f"2 * i + {a}", f"2 * j + {b}"
                out.append(
                    f"            const T p{a}{b} = F({x}, {y}, 2 * k) "
                    f"+ F({x}, {y}, 2 * k + 1);"
                )
        out += [
            "            const T avg = (((p00 + p01) + p10) + p11) / (T)8;",
            "            coarse[(i * B + j) * B + k] = avg != avg ? (T)NAN : avg;",
            "        }",
        ]
    else:
        out += [
            "        for (int x = 0; x < 2 * B; ++x)",
            "        for (int y = 0; y < 2 * B; ++y)",
            "        for (int z = 0; z < 2 * B; ++z)",
            "            F(x, y, z) = F(x, y, z) "
            "+ coarse[((x / 2) * B + y / 2) * B + z / 2];",
        ]
    out += ["    }", "}", ""]
    return "\n".join(out)


# ----------------------------------------------------------------------
# the backend: compiler, cache directory, loaded kernels
# ----------------------------------------------------------------------
def _cpu_features() -> dict:
    """NumPy's runtime CPU feature table (computed when NumPy was
    imported), or ``{}`` where this NumPy has none."""
    for module in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            return dict(importlib.import_module(module).__cpu_features__)
        except (ImportError, AttributeError):
            continue
    return {}


def vector_flags() -> tuple[str, ...]:
    """The flags of the first :data:`VECTOR_ISAS` entry this CPU runs;
    none on any other host (a non-x86 table names no AVX feature)."""
    features = _cpu_features()
    return next((flags for name, flags in VECTOR_ISAS if features.get(name)), ())


class NativeKernel:
    """One loaded shared object: the entry point and the library handle
    that keeps it mapped."""

    __slots__ = ("fn", "lib")

    def __init__(self, fn, lib) -> None:
        self.fn = fn
        self.lib = lib


def _cache_dir_candidates() -> list[str]:
    """Where shared objects may be cached, most preferred first."""
    out = []
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        out.append(os.path.join(xdg, "repro", "kernels"))
    home = os.path.expanduser("~")
    if home and home != "~":
        out.append(os.path.join(home, ".cache", "repro", "kernels"))
    uid = os.getuid() if hasattr(os, "getuid") else "user"
    out.append(os.path.join(tempfile.gettempdir(), f"repro-kernels-{uid}"))
    return out


def _usable_cache_dir(path: str) -> bool:
    """Create ``path`` if need be; true when it is ours to load code
    from: writable, owned by this user, not writable by anyone else."""
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        info = os.stat(path)
    except OSError:
        return False
    if hasattr(os, "getuid") and info.st_uid != os.getuid():
        return False
    if info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        return False
    return os.access(path, os.W_OK | os.X_OK)


class Backend:
    """The process's native backend — or, with ``reason`` set, why there
    is none and every kernel runs through NumPy.

    Holds what is shared by all kernels: the compiler and its version,
    the :func:`vector_flags` every kernel is built with, the cache
    directory, the one cffi ``FFI``, the kernels loaded so far (keyed by
    their shared object's name) and the hit/miss tallies that ``repro
    profile`` and :class:`~repro.obs.metrics.MetricsRegistry` report.
    """

    def __init__(
        self,
        reason: str | None = None,
        cc: str | None = None,
        version: str = "",
        cache_dir: str | None = None,
        ffi=None,
        vector_flags: tuple[str, ...] = (),
    ) -> None:
        self.reason = reason
        self.cc = cc
        self.version = version
        self.cache_dir = cache_dir
        self._ffi = ffi
        self.vector_flags = tuple(vector_flags)
        #: kernels built without the vector flags, which the compiler
        #: rejected
        self.baseline = 0
        #: shared-object file name -> kernel, or the reason it is unusable
        self._kernels: dict[str, NativeKernel | str] = {}
        #: kernels compiled by this process / loaded from the directory
        self.compiled = 0
        self.loaded = 0
        self.compile_ms = 0.0
        #: foreign calls made, the stencil sweeps they ran and the
        #: cells those computed
        self.calls = 0
        self.sweeps = 0
        self.cells = 0
        #: foreign calls made into inter-grid kernels
        self.intergrid = 0

    @classmethod
    def probe(cls, cache_dir: str | None = None) -> "Backend":
        """Look for a compiler, cffi and a cache directory.

        ``cache_dir`` replaces the standard candidates (tests build
        throw-away kernels in a scratch directory).
        """
        cc = next(filter(None, map(shutil.which, COMPILERS)), None)
        if cc is None:
            return cls(f"no C compiler on PATH (tried {', '.join(COMPILERS)})")
        try:
            import cffi
        except ImportError:
            return cls("cffi is not installed")
        try:
            version = subprocess.run(
                [cc, "--version"], capture_output=True, text=True, check=True,
                timeout=60,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError) as exc:
            return cls(f"C compiler {cc} does not run: {exc}")
        candidates = [cache_dir] if cache_dir else _cache_dir_candidates()
        usable = next(filter(_usable_cache_dir, candidates), None)
        if usable is None:
            return cls(
                "no writable kernel cache directory (tried "
                f"{', '.join(candidates)})"
            )
        ffi = cffi.FFI()
        ffi.cdef(_CDEF)
        return cls(None, cc, version, usable, ffi, vector_flags())

    # ------------------------------------------------------------------
    def kernel(self, name: str, source: str) -> NativeKernel | str:
        """The loaded kernel for ``source``, compiling it only when no
        process has before — with the vector flags, else once more
        without them; a reason string when it cannot be had."""
        flags = CFLAGS + self.vector_flags
        filename = self._filename(name, source, flags)
        found = self._kernels.get(filename)
        if found is None:
            found = self._load(filename, source, flags)
            if isinstance(found, str) and self.vector_flags:
                rejected = found
                found = self._load(self._filename(name, source, CFLAGS), source, CFLAGS)
                if not isinstance(found, str):
                    self.baseline += 1
                    log.warning(
                        "kernel %s built without %s, which failed: %s",
                        name, " ".join(self.vector_flags), rejected,
                    )
            self._kernels[filename] = found
        return found

    def _filename(self, name: str, source: str, flags) -> str:
        """The shared object's name: the kernel's, and a hash of what
        decides its code — source, flags and compiler version."""
        digest = hashlib.sha256(
            "\0".join((source, " ".join(flags), self.version)).encode()
        ).hexdigest()[:20]
        stem = re.sub(r"\W+", "_", name).strip("_") or "kernel"
        return f"{stem}-{digest}.so"

    def _load(self, filename: str, source: str, flags) -> NativeKernel | str:
        path = os.path.join(self.cache_dir, filename)
        kernel = self._open(path) if os.path.exists(path) else None
        if isinstance(kernel, NativeKernel):
            self.loaded += 1
            return kernel
        # nothing cached — or something that will not load (a truncated
        # file, another architecture's object on a shared home): build
        # it, once, over whatever is there
        failure = self._compile(path, source, flags)
        if failure is not None:
            return failure
        self.compiled += 1
        return self._open(path)

    def _open(self, path: str) -> NativeKernel | str:
        try:
            lib = self._ffi.dlopen(path)
            fn = getattr(lib, ENTRY_POINT)
        except (OSError, AttributeError) as exc:
            return f"cannot load {path}: {exc}"
        return NativeKernel(fn, lib)

    def _compile(self, path: str, source: str, flags) -> str | None:
        """Build ``path`` under a temporary name and move it into place;
        ``None`` on success, else the reason."""
        start = time.perf_counter()
        try:
            with tempfile.TemporaryDirectory(dir=self.cache_dir) as work:
                c_file = os.path.join(work, "kernel.c")
                so_file = os.path.join(work, "kernel.so")
                with open(c_file, "w") as fh:
                    fh.write(source)
                done = subprocess.run(
                    [self.cc, *flags, "-o", so_file, c_file],
                    capture_output=True, text=True, timeout=600,
                )
                if done.returncode != 0:
                    detail = (done.stderr.strip().splitlines() or ["no output"])[0]
                    return f"compile error ({self.cc}): {detail}"
                os.replace(c_file, path[: -len(".so")] + ".c")
                os.replace(so_file, path)
        except (OSError, subprocess.SubprocessError) as exc:
            return f"cannot build in {self.cache_dir}: {exc}"
        finally:
            self.compile_ms += (time.perf_counter() - start) * 1e3
        return None

    def describe(self) -> str:
        """What this backend is, for ``repro profile`` and ``--trace``."""
        if self.reason is not None:
            return f"NumPy ({self.reason})"
        flags = " ".join(FP_FLAGS + self.vector_flags)
        return (
            f"native C ({self.version.splitlines()[0]}, {flags}), "
            f"{self.compiled} compiled"
            + (f" ({self.baseline} without vector flags)" if self.baseline else "")
            + f", {self.loaded} loaded from "
            f"{self.cache_dir}, {self.calls} calls, {self.sweeps} sweeps, "
            f"{self.cells} cells, {self.intergrid} inter-grid calls"
        )


_backend: Backend | None = None

#: every distinct reason a kernel application ran through NumPy
_fallback_reasons: list[str] = []


def resolve_backend() -> Backend:
    """The process's backend, probed on first use.

    The one place the native/NumPy choice is made: tests substitute it
    (``monkeypatch.setattr(native, "resolve_backend", ...)``) to reach
    the NumPy kernels or a scratch cache directory.
    """
    global _backend
    if _backend is None:
        _backend = Backend.probe()
    return _backend


def note_fallback(reason: str) -> None:
    """Record (and log) ``reason`` the first time it sends a kernel
    application through NumPy."""
    if reason not in _fallback_reasons:
        _fallback_reasons.append(reason)
        log.info("kernels run through NumPy: %s", reason)


def fallback_reasons() -> tuple[str, ...]:
    """The distinct fallback reasons noted so far, oldest first."""
    return tuple(_fallback_reasons)


def stats() -> dict:
    """``{"hits", "misses", "compile_ms"}`` of the kernel cache: shared
    objects loaded from the directory, compiled by this process, and the
    milliseconds that took.  Zeros before any kernel was applied (never
    probes the compiler itself)."""
    b = _backend
    if b is None:
        return {"hits": 0, "misses": 0, "compile_ms": 0.0}
    return {"hits": b.loaded, "misses": b.compiled, "compile_ms": b.compile_ms}


def call_counts() -> dict:
    """``{"calls", "sweeps", "cells", "intergrid"}``: foreign calls into
    native stencil kernels so far, the stencil sweeps they ran — equal
    until a caller hands a kernel a whole exchange window — and the
    cells those sweeps computed (interior plus the clipped ghost boxes,
    :meth:`BoundCall.window_cells`), and foreign calls into inter-grid
    kernels.  Zeros under NumPy."""
    b = _backend
    if b is None:
        return {"calls": 0, "sweeps": 0, "cells": 0, "intergrid": 0}
    return {
        "calls": b.calls, "sweeps": b.sweeps, "cells": b.cells,
        "intergrid": b.intergrid,
    }


def describe() -> str:
    """One line saying which backend produced this process's numbers."""
    backend = resolve_backend()
    line = f"kernels: {backend.describe()}"
    partial = [r for r in _fallback_reasons if r != backend.reason]
    if partial:
        line += f"; NumPy where: {'; '.join(partial)}"
    return line


# ----------------------------------------------------------------------
# binding a kernel to field storage
# ----------------------------------------------------------------------
class _Binding:
    """What :func:`bind` decided for one kernel and one set of field
    arrays, kept in ``workspace[kernel]``; holds while the fields keep
    the very same arrays on the same grid (``matches``).

    ``reason`` is ``None`` on a :class:`BoundCall` and says why the
    fields run through NumPy on a :class:`Refusal`.
    """

    __slots__ = ("backend", "grid", "arrays", "reason")

    def __init__(self, backend, grid, arrays, reason: str | None = None) -> None:
        self.backend = backend
        self.grid = grid
        self.arrays = tuple(arrays)
        self.reason = reason

    def matches(self, backend, grid, arrays) -> bool:
        """Whether this binding is for exactly these objects."""
        if self.backend is not backend or self.grid is not grid:
            return False
        for mine, theirs in zip(self.arrays, arrays):
            if mine is not theirs:
                return False
        return True


class Refusal(_Binding):
    """These arrays do not qualify for the native kernel: remembered so
    the eligibility scan is not repeated on every apply."""

    __slots__ = ()


def slot_table(grid) -> tuple[np.ndarray, int]:
    """What a stencil kernel walks on ``grid``: its interior slots in
    storage order, then one row ``(slot, o0, o1, o2)`` per ghost slot
    giving the brick's ring offset along each axis — ``c - g`` before
    the interior, ``c - (g + n) + 1`` after it, 0 beside it (stored
    coordinate ``c``, ``g`` ghost bricks, ``n`` interior bricks; ``±1``
    on a one-brick shell).  Returns the flat table and the interior
    count.  A ghostless grid's table is every slot and no row."""
    inner = np.sort(grid.interior_slots)
    ghost = grid.ghost_slots
    g = grid.ghost_bricks
    coords = grid.slot_to_grid[ghost]
    n = np.asarray(grid.shape_bricks, dtype=np.int64)
    ring = np.where(
        coords < g, coords - g, np.where(coords >= g + n, coords - g - n + 1, 0)
    )
    rows = np.column_stack([ghost, ring]).reshape(-1)
    table = np.ascontiguousarray(np.concatenate([inner, rows]), dtype=np.int64)
    return table, len(inner)


class BoundCall(_Binding):
    """A native kernel bound to one set of field arrays.

    Eligibility is checked and the pointer and slot tables built once;
    while the binding holds, a call costs only the constants and the
    foreign call.  Every array a pointer was taken from is referenced
    here, so none can be freed under the kernel.  ``sweeps`` and
    ``cells`` tally what this binding's calls ran: stencil sweeps, and
    the cells they computed (interior plus the clipped ghost boxes).
    """

    __slots__ = (
        "_fn", "_nslots", "_adj", "_ptrs", "_consts", "_slots", "_ninner",
        "_nghost", "_depth", "_ring", "_radius", "_window", "_keep", "sweeps",
        "cells",
    )

    def __init__(
        self, backend, kernel, grid, arrays, staging, adjacency, num_consts,
        radius, table,
    ) -> None:
        super().__init__(backend, grid, arrays)
        ffi = backend._ffi
        self._fn = kernel.fn
        self._nslots = int(grid.num_slots)
        buffers = [ffi.from_buffer(a) for a in (*arrays, *staging)]
        self._ptrs = ffi.new("void *[]", [ffi.cast("void *", b) for b in buffers])
        adj = ffi.from_buffer(adjacency)
        self._adj = ffi.cast("const int64_t *", adj)
        self._consts = ffi.new("double[]", max(num_consts, 1))
        slots, self._ninner = table
        self._ring = slots[self._ninner:].reshape(-1, 4)[:, 1:]
        self._nghost = len(self._ring)
        self._depth = int(grid.ghost_cells)
        self._radius = int(radius)
        tab = ffi.from_buffer(slots)
        self._slots = ffi.cast("const int64_t *", tab)
        #: sweeps -> cells one call of that many sweeps computes
        self._window: dict[int, int] = {}
        self._keep = (kernel, buffers, adj, staging, adjacency, tab, slots)
        self.sweeps = 0
        self.cells = 0

    def window_cells(self, sweeps: int) -> int:
        """Cells one call of ``sweeps`` sweeps computes: every interior
        cell per sweep, plus sweep ``k``'s ghost box of depth ``G - (k +
        1) r`` in whole ``k`` rows."""
        cells = self._window.get(sweeps)
        if cells is None:
            B, ring = self.grid.brick_dim, self._ring
            cells = self._ninner * B**3 * sweeps
            for k in range(sweeps):
                depth = self._depth - (k + 1) * self._radius
                if depth > 0:
                    # cells per axis within depth of the interior: CLIP
                    lo = np.where(ring < 0, np.clip(-ring * B - depth, 0, B), 0)
                    hi = np.where(ring > 0, np.clip(depth - (ring - 1) * B, 0, B), B)
                    ext = hi - lo
                    ext = ext[(ext > 0).all(axis=1)]
                    cells += int((ext[:, 0] * ext[:, 1]).sum()) * B
            self._window[sweeps] = cells
        return cells

    def run(self, consts: list[float], sweeps: int = 1) -> None:
        """Apply the kernel ``sweeps`` times in one call, with
        ``consts`` (``analysis.const_names`` order), to the bound
        arrays."""
        buf = self._consts
        for i, value in enumerate(consts):
            buf[i] = value
        cells = self._window.get(sweeps) or self.window_cells(sweeps)
        backend = self.backend
        backend.calls += 1
        backend.sweeps += sweeps
        backend.cells += cells
        self.sweeps += sweeps
        self.cells += cells
        self._fn(
            self._nslots, self._adj, self._ptrs, buf, sweeps, self._slots,
            self._ninner, self._nghost, self._depth,
        )


def _overlap(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two C-contiguous arrays share any byte."""
    pa, pb = a.ctypes.data, b.ctypes.data
    return pa < pb + b.nbytes and pb < pa + a.nbytes


def load_kernel(backend: Backend, compiled, dtype: np.dtype) -> NativeKernel | str:
    """The native kernel of a :class:`~repro.dsl.codegen.CompiledKernel`
    for ``dtype`` fields (built or loaded on first need), or why not."""
    if dtype.char not in _C_TYPES:
        return f"no C type for field dtype {dtype}"
    an = compiled.analysis
    block = (compiled.brick_dim + 2 * an.radius) ** 3 * dtype.itemsize
    if block * len(an.halo_grids) > STACK_BUDGET_BYTES:
        return (
            f"halo blocks of {compiled.stencil.name} exceed the "
            f"{STACK_BUDGET_BYTES}-byte stack budget"
        )
    source = generate_c_source(compiled.stencil, an, compiled.brick_dim, dtype)
    return backend.kernel(compiled.stencil.name, source)


def bind(
    backend: Backend, compiled, grid, arrays, workspace
) -> BoundCall | Refusal:
    """Bind ``compiled``'s native kernel to ``arrays`` (the storage of
    :func:`field_order`'s grids), or refuse, saying why these fields
    must run through NumPy.

    Everything a C pointer relies on is checked here: one dtype, packed
    C-contiguous ``(num_slots, B, B, B)`` storage, outputs that overlap
    no other field, and an in-range ``int64`` adjacency table.
    """
    reason = _ineligible(compiled, grid, arrays)
    if reason is not None:
        return Refusal(backend, grid, arrays, reason)
    dtype = arrays[0].dtype
    kernel = compiled.native_kernel(backend, dtype)
    if isinstance(kernel, str):
        return Refusal(backend, grid, arrays, kernel)
    an = compiled.analysis
    staging = []
    for g in staged_outputs(an):
        key = ("native-stage", g, arrays[0].shape, dtype.char)
        buf = workspace.get(key) if workspace is not None else None
        if buf is None:
            # zeros, not garbage: cells no sweep writes (outside the
            # clipped ghost boxes) reach x's shell on an odd window's
            # copy back, and must be the same bits every run
            buf = np.zeros(arrays[0].shape, dtype=dtype)
            if workspace is not None:
                workspace[key] = buf
        staging.append(buf)
    key = ("native-slots", grid.geometry_key)
    table = workspace.get(key) if workspace is not None else None
    if table is None:
        table = slot_table(grid)
        if workspace is not None:
            workspace[key] = table
    return BoundCall(
        backend, kernel, grid, arrays, staging, grid.adjacency,
        len(an.const_names), an.radius, table,
    )


def _ineligible(compiled, grid, arrays) -> str | None:
    """Why ``arrays`` cannot be handed to a C kernel, if they cannot."""
    B = compiled.brick_dim
    shape = (grid.num_slots, B, B, B)
    dtype = arrays[0].dtype
    for a in arrays:
        if a.dtype != dtype:
            return "mixed field dtypes"
        if a.shape != shape or not a.flags.c_contiguous:
            return "strided field storage"
    an = compiled.analysis
    order = field_order(an)
    for g in an.output_grids:
        i = order.index(g)
        if any(j != i and _overlap(arrays[i], a) for j, a in enumerate(arrays)):
            return "an output field shares storage with another field"
    adjacency = grid.adjacency
    if not (
        isinstance(adjacency, np.ndarray)
        and adjacency.dtype == np.int64
        and adjacency.shape == (grid.num_slots, 27)
        and adjacency.flags.c_contiguous
        and adjacency.size
        and 0 <= int(adjacency.min())
        and int(adjacency.max()) < grid.num_slots
    ):
        return "adjacency is not an in-range C-contiguous int64 table"
    return None


# ----------------------------------------------------------------------
# binding an inter-grid kernel to one level pair
# ----------------------------------------------------------------------
class IntergridCall(_Binding):
    """A native inter-grid kernel bound to one level pair's source and
    destination arrays and its child table (see
    :func:`generate_intergrid_source`); a call costs only the foreign
    call.  Every array a pointer was taken from is referenced here."""

    __slots__ = ("_fn", "_nslots", "_table", "_ptrs", "_keep")

    def __init__(self, backend, kernel, grid, arrays, table) -> None:
        super().__init__(backend, grid, arrays)
        ffi = backend._ffi
        self._fn = kernel.fn
        self._nslots = len(table)
        buffers = [ffi.from_buffer(a) for a in arrays]
        self._ptrs = ffi.new("void *[]", [ffi.cast("void *", b) for b in buffers])
        tab = ffi.from_buffer(table)
        self._table = ffi.cast("const int64_t *", tab)
        self._keep = (kernel, buffers, tab, table)

    def run(self) -> None:
        """Apply the operator to the bound arrays."""
        self.backend.intergrid += 1
        null = self.backend._ffi.NULL
        self._fn(self._nslots, self._table, self._ptrs, null, 1, null, 0, 0, 0)


def bind_intergrid(
    backend: Backend, op: str, grid, arrays, table: np.ndarray
) -> IntergridCall | Refusal:
    """Bind ``op``'s native kernel to ``arrays`` (``[source,
    destination]``, see :data:`INTERGRID_OPS`) and the child ``table``
    of the coarse ``grid``, or refuse, saying why the pair must run
    through NumPy."""
    reason = _intergrid_ineligible(op, grid.brick_dim, arrays, table)
    if reason is None:
        source = generate_intergrid_source(op, grid.brick_dim, arrays[0].dtype)
        kernel = backend.kernel(op, source)
        if not isinstance(kernel, str):
            return IntergridCall(backend, kernel, grid, arrays, table)
        reason = kernel
    return Refusal(backend, grid, arrays, reason)


def _intergrid_ineligible(op: str, B: int, arrays, table) -> str | None:
    """Why a level pair cannot be handed to an inter-grid kernel, if it
    cannot: one C-typed dtype, packed C-contiguous ``(slots, B, B, B)``
    storage, a destination sharing no byte with the source, and an
    in-range C-contiguous ``(n, 9)`` ``int64`` table."""
    src, dst = arrays
    fine, coarse = (src, dst) if op == "restriction" else (dst, src)
    if src.dtype.char not in _C_TYPES:
        return f"no C type for field dtype {src.dtype}"
    for a in arrays:
        if a.dtype != src.dtype:
            return "mixed field dtypes"
        if a.shape[1:] != (B, B, B) or not a.flags.c_contiguous:
            return "strided field storage"
    if _overlap(src, dst):
        return "an output field shares storage with another field"
    if not (
        table.dtype == np.int64
        and table.ndim == 2
        and table.shape[1] == 9
        and table.flags.c_contiguous
        and table.size
        and 0 <= int(table.min())
        and int(table[:, 0].max()) < len(coarse)
        and int(table[:, 1:].max()) < len(fine)
    ):
        return "child table is not an in-range C-contiguous int64 table"
    return None
