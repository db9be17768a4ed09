"""The native C kernels against their oracle, the NumPy kernels.

``CompiledKernel.apply`` picks the native kernel whenever it can; these
tests pin that whatever it picks, the bytes are the NumPy path's — per
kernel, per whole solve, and on every named fallback — and that the
shared-object cache behaves across kernels and processes.
"""

import json
import logging
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from repro.bricks import BatchedGrid, BrickGrid, BrickedArray
from repro.dsl import library, native
from repro.dsl.ast import ConstRef, Grid, Stencil, indices
from repro.dsl.codegen import CompiledKernel, compile_stencil
from repro.gmg import SolverConfig
from repro.gmg.varcoef import (
    VARIABLE_APPLY_OP,
    VARIABLE_SMOOTH,
    VARIABLE_SMOOTH_RESIDUAL,
)
from tests.conftest import numpy_path, valid_cells
from tests.oracle import assert_matches_oracle


@pytest.fixture(autouse=True)
def _needs_native_kernels(native_backend):
    """Skip the module, with the backend's reason, where no native
    kernel can be built (no compiler, no cffi)."""


STENCILS = {
    s.name: s
    for s in (
        library.APPLY_OP,
        library.SMOOTH,
        library.SMOOTH_RESIDUAL,
        library.RESIDUAL,
        library.FUSED_SMOOTH,
        library.FUSED_SMOOTH_RESIDUAL,
        library.FUSED_APPLY_RESIDUAL,
        VARIABLE_APPLY_OP,
        VARIABLE_SMOOTH,
        VARIABLE_SMOOTH_RESIDUAL,
    )
}

GRIDS = {
    "lexicographic": lambda B: BrickGrid((3, 2, 2), B, ordering="lexicographic"),
    "surface-major": lambda B: BrickGrid((3, 2, 2), B, ordering="surface-major"),
    "8-rank-batched": lambda B: BatchedGrid(BrickGrid((2, 2, 2), B), 8),
}

# awkward on purpose: none is exactly representable in float32
CONSTS = {"alpha": -6.1, "beta": 1.3, "gamma": 0.0837, "omega": 0.7}


def random_fields(kernel: CompiledKernel, grid, dtype, seed=0):
    rng = np.random.default_rng(seed)
    fields = {}
    for g in native.field_order(kernel.analysis):
        f = BrickedArray.zeros(grid, dtype=dtype)
        # ghost bricks included: every slot holds data a kernel may read
        f.data[...] = rng.standard_normal(f.data.shape)
        fields[g] = f
    return fields


def clone(fields):
    return {
        g: BrickedArray(f.grid, f.data.copy(), dtype=f.dtype)
        for g, f in fields.items()
    }


def consts_for(kernel: CompiledKernel) -> dict:
    return {name: CONSTS[name] for name in kernel.analysis.const_names}


def assert_same_bytes(got, want, kernel=None, sweeps=1):
    """Every field equal byte for byte: on every slot, or — given the
    ``kernel`` applied ``sweeps`` times — on every cell still valid
    after it (within ``ghost_cells - sweeps * radius`` of the interior),
    where the native kernel promises the NumPy kernel's bytes.  Beyond
    that depth the native kernel computes nothing and the NumPy kernel
    computes clamp artefacts."""
    for g in want:
        a, b = got[g].data, want[g].data
        if kernel is not None:
            grid = want[g].grid
            depth = grid.ghost_cells - sweeps * kernel.analysis.radius
            mask = valid_cells(grid, depth)
            a, b = a[mask], b[mask]
        assert a.tobytes() == b.tobytes(), g


def apply_both(kernel, fields, consts):
    """Apply natively to ``fields`` and through NumPy to a clone;
    returns the NumPy clone."""
    oracle = clone(fields)
    with numpy_path():
        kernel.apply(oracle, consts, {})
    workspace: dict = {}
    kernel.apply(fields, consts, workspace)
    assert isinstance(workspace.get(kernel), native.BoundCall), "NumPy ran"
    return oracle


# ----------------------------------------------------------------------
# (a) kernel by kernel
# ----------------------------------------------------------------------
@pytest.mark.parametrize("layout", GRIDS)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("brick_dim", [2, 4, 8])
@pytest.mark.parametrize("name", STENCILS)
def test_kernel_matches_numpy_bytes(name, brick_dim, dtype, layout):
    kernel = compile_stencil(STENCILS[name], brick_dim)
    grid = GRIDS[layout](brick_dim)
    fields = random_fields(kernel, grid, dtype)
    oracle = apply_both(kernel, fields, consts_for(kernel))
    # every field, on every cell still valid after one sweep
    assert_same_bytes(fields, oracle, kernel)


def test_second_application_reuses_the_binding():
    kernel = compile_stencil(library.FUSED_SMOOTH_RESIDUAL, 4)
    fields = random_fields(kernel, GRIDS["surface-major"](4), np.float64)
    oracle = clone(fields)
    workspace: dict = {}
    for _ in range(3):
        kernel.apply(fields, consts_for(kernel), workspace)
        with numpy_path():
            kernel.apply(oracle, consts_for(kernel), {})
    assert_same_bytes(fields, oracle, kernel, sweeps=3)
    bound = workspace[kernel]
    # rebinding a field's storage is noticed, not trusted
    fields["b"].data = fields["b"].data.copy()
    kernel.apply(fields, consts_for(kernel), workspace)
    assert workspace[kernel] is not bound


def test_constant_arithmetic_follows_python_floats():
    """Constant-with-constant subtrees compute in double and meet the
    field as one weak scalar, also in float32."""
    i, j, k = indices()
    x, y = Grid("x"), Grid("y")
    a, b = ConstRef("alpha"), ConstRef("beta")
    expr = (a * 3.3 - b / 7.0) * x(i, j, k) + (a + b) - x(i + 1, j, k) / (b * b)
    kernel = CompiledKernel(Stencil("consts", [y(i, j, k).assign(expr)]), 4)
    for dtype in (np.float64, np.float32):
        fields = random_fields(kernel, GRIDS["lexicographic"](4), dtype)
        oracle = apply_both(kernel, fields, consts_for(kernel))
        assert_same_bytes(fields, oracle, kernel)


def test_wide_and_diagonal_reads():
    """Radius 2, edge and corner neighbours, two halo grids."""
    i, j, k = indices()
    x, y, z = Grid("x"), Grid("y"), Grid("z")
    expr = (
        x(i + 2, j - 1, k) + x(i - 1, j + 1, k + 2) * y(i, j - 2, k + 1)
        - y(i + 1, j + 1, k + 1)
    )
    kernel = CompiledKernel(
        Stencil("wide", [z(i, j, k).assign(expr), x(i, j, k).assign(expr * 0.5)]), 4
    )
    fields = random_fields(kernel, GRIDS["surface-major"](4), np.float64)
    oracle = apply_both(kernel, fields, {})
    assert_same_bytes(fields, oracle, kernel)


# ----------------------------------------------------------------------
# (c) whole solves
# ----------------------------------------------------------------------
SMALL = dict(global_cells=16, num_levels=2, brick_dim=4, max_vcycles=6)

SOLVES = {
    "kernel_1rank_64": dict(global_cells=64, num_levels=4, brick_dim=8),
    "exchange_8rank_32": dict(
        global_cells=32, num_levels=3, brick_dim=4, rank_dims=(2, 2, 2)
    ),
    "default_1rank_32": dict(global_cells=32, num_levels=3, brick_dim=4),
    "fp32": dict(**SMALL, precision="fp32"),
    "red-black": dict(**SMALL, smoother="gsrb"),
    "chebyshev": dict(**SMALL, smoother="chebyshev"),
    "dirichlet": dict(**SMALL, boundary="dirichlet"),
    "16-rank-agglomerated": dict(
        global_cells=32, num_levels=3, brick_dim=4, rank_dims=(4, 2, 2),
        agglomerate_threshold=64, max_vcycles=4,
    ),
}


@pytest.mark.parametrize("name", SOLVES)
def test_solve_matches_numpy_bytes(name, native_backend):
    applied = native_backend.compiled + native_backend.loaded
    assert_matches_oracle(SolverConfig(**SOLVES[name]))
    assert native_backend.compiled + native_backend.loaded >= applied
    assert native_backend._kernels, "no native kernel was ever loaded"


# ----------------------------------------------------------------------
# (d) every fallback: NumPy result, named reason, logged once
# ----------------------------------------------------------------------
@pytest.fixture
def reasons(monkeypatch, caplog):
    """A fresh fallback-reason log for one test."""
    noted: list[str] = []
    monkeypatch.setattr(native, "_fallback_reasons", noted)
    caplog.set_level(logging.INFO, logger=native.log.name)
    return noted


def apply_op_case(dtype=np.float64):
    kernel = CompiledKernel(library.APPLY_OP, 4)
    fields = random_fields(kernel, GRIDS["surface-major"](4), dtype)
    with numpy_path():
        oracle = clone(fields)
        kernel.apply(oracle, consts_for(kernel), {})
    return kernel, fields, oracle


def assert_fell_back(kernel, fields, oracle, reasons, caplog, needle, consts=None):
    consts = consts or consts_for(kernel)
    reasons.clear()  # drop what computing the oracle noted
    caplog.clear()
    workspace: dict = {}
    kernel.apply(fields, consts, workspace)
    assert not isinstance(workspace.get(kernel), native.BoundCall)
    assert_same_bytes(fields, oracle)
    for _ in range(2):
        kernel.apply(fields, consts, workspace)
    matching = [r for r in reasons if needle in r]
    assert len(matching) == 1, reasons
    logged = [rec for rec in caplog.records if needle in rec.getMessage()]
    assert len(logged) == 1  # once, not per call


def with_backend(monkeypatch, backend):
    monkeypatch.setattr(native, "resolve_backend", lambda: backend)


def test_fallback_no_compiler(monkeypatch, reasons, caplog):
    monkeypatch.setattr(native.shutil, "which", lambda name: None)
    backend = native.Backend.probe()
    assert "no C compiler" in backend.reason
    assert backend.describe() == f"NumPy ({backend.reason})"
    with_backend(monkeypatch, backend)
    assert_fell_back(*apply_op_case(), reasons, caplog, "no C compiler")
    assert native.describe() == f"kernels: NumPy ({backend.reason})"


def test_fallback_no_cffi(monkeypatch, reasons, caplog):
    monkeypatch.setitem(sys.modules, "cffi", None)
    backend = native.Backend.probe()
    assert backend.reason == "cffi is not installed"
    with_backend(monkeypatch, backend)
    assert_fell_back(*apply_op_case(), reasons, caplog, "cffi")


def test_fallback_compile_error(monkeypatch, tmp_path, reasons, caplog):
    monkeypatch.setattr(native, "CFLAGS", native.CFLAGS + ("-fno-such-option",))
    backend = native.Backend.probe(cache_dir=str(tmp_path))
    assert backend.reason is None
    with_backend(monkeypatch, backend)
    assert_fell_back(*apply_op_case(), reasons, caplog, "compile error")
    assert not list(tmp_path.glob("*.so"))


def test_fallback_unwritable_cache(monkeypatch, tmp_path, reasons, caplog):
    blocker = tmp_path / "a-file"
    blocker.write_text("not a directory")
    nowhere = str(blocker / "sub")
    monkeypatch.setenv("XDG_CACHE_HOME", nowhere)
    monkeypatch.setenv("HOME", nowhere)
    monkeypatch.setattr(tempfile, "tempdir", nowhere)
    backend = native.Backend.probe()
    assert "no writable kernel cache directory" in backend.reason
    with_backend(monkeypatch, backend)
    assert_fell_back(*apply_op_case(), reasons, caplog, "no writable kernel cache")


def test_cache_directory_candidates(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    first, second, third = native._cache_dir_candidates()
    assert first == str(tmp_path / "xdg" / "repro" / "kernels")
    assert second == str(tmp_path / "home" / ".cache" / "repro" / "kernels")
    assert third.startswith(tempfile.gettempdir())
    monkeypatch.delenv("XDG_CACHE_HOME")
    assert native._cache_dir_candidates() == [second, third]
    # a directory someone else could write to is not loaded from
    shared = tmp_path / "shared"
    shared.mkdir(mode=0o777)
    shared.chmod(0o777)
    assert not native._usable_cache_dir(str(shared))
    assert native._usable_cache_dir(str(tmp_path / "private"))


def test_fallback_strided_field(reasons, caplog):
    """A field whose storage is a strided view (here: the interior of a
    padded array) is never handed to C as a packed pointer."""
    kernel, fields, oracle = apply_op_case()
    grid = fields["x"].grid
    padded = np.zeros((grid.num_slots, 6, 6, 6))
    view = padded[:, 1:5, 1:5, 1:5]
    view[...] = fields["x"].data
    fields["x"] = BrickedArray(grid, view)
    assert_fell_back(kernel, fields, oracle, reasons, caplog, "strided field storage")


def test_fallback_mixed_dtypes(reasons, caplog):
    kernel, fields, _ = apply_op_case()
    fields["Ax"] = BrickedArray.zeros(fields["x"].grid, dtype=np.float32)
    oracle = clone(fields)
    with numpy_path():
        kernel.apply(oracle, consts_for(kernel), {})
    assert_fell_back(kernel, fields, oracle, reasons, caplog, "mixed field dtypes")


def test_fallback_numpy_scalar_constants(reasons, caplog):
    kernel, fields, _ = apply_op_case(np.float32)
    consts = {"alpha": np.float64(-6.1), "beta": 1.3}
    oracle = clone(fields)
    with numpy_path():
        kernel.apply(oracle, consts, {})
    assert_fell_back(
        kernel, fields, oracle, reasons, caplog, "NumPy-scalar", consts=consts
    )


def test_fallback_aliased_output(reasons, caplog):
    kernel = CompiledKernel(library.APPLY_OP, 4)
    fields = random_fields(kernel, GRIDS["surface-major"](4), np.float64)
    fields["Ax"] = fields["x"]  # NumPy's whole-array compute-then-store copes
    oracle = {"x": clone(fields)["x"]}
    oracle["Ax"] = oracle["x"]
    with numpy_path():
        kernel.apply(oracle, consts_for(kernel), {})
    assert_fell_back(kernel, fields, oracle, reasons, caplog, "shares storage")


def test_refusal_is_remembered_until_the_arrays_change(monkeypatch):
    """A field set that does not qualify is scanned once, not per apply
    — and again, successfully, once the offending array is replaced."""
    kernel, fields, _ = apply_op_case()
    fields["Ax"] = BrickedArray.zeros(fields["x"].grid, dtype=np.float32)
    scans = []
    scan = native._ineligible
    monkeypatch.setattr(
        native, "_ineligible", lambda *args: scans.append(1) or scan(*args)
    )
    workspace: dict = {}
    for _ in range(4):
        kernel.apply(fields, consts_for(kernel), workspace)
    refusal = workspace[kernel]
    assert isinstance(refusal, native.Refusal)
    assert refusal.reason == "mixed field dtypes"
    assert len(scans) == 1
    fields["Ax"] = BrickedArray.zeros(fields["x"].grid, dtype=np.float64)
    for _ in range(2):
        kernel.apply(fields, consts_for(kernel), workspace)
    assert isinstance(workspace[kernel], native.BoundCall)
    assert len(scans) == 2


def test_fallback_stack_budget(reasons, caplog):
    i, j, k = indices()
    x, y, z = Grid("x"), Grid("y"), Grid("z")
    stencil = Stencil(
        "huge", [z(i, j, k).assign(x(i + 16, j, k) + y(i, j - 16, k))]
    )
    kernel = CompiledKernel(stencil, 16)
    fields = random_fields(kernel, BrickGrid((1, 1, 1), 16), np.float64)
    oracle = clone(fields)
    with numpy_path():
        kernel.apply(oracle, {}, {})
    assert_fell_back(kernel, fields, oracle, reasons, caplog, "stack budget")


# ----------------------------------------------------------------------
# flags and laziness
# ----------------------------------------------------------------------
def test_flags_forbid_contraction_and_fast_math(native_backend):
    assert "-ffp-contract=off" in native.CFLAGS
    vector = [f for _, flags in native.VECTOR_ISAS for f in flags]
    for f in (*native.CFLAGS, *vector, *native_backend.vector_flags):
        assert "fast" not in f and "unsafe" not in f and f != "-Ofast", f
        # -march=native may raise FLT_EVAL_METHOD (AVX512-FP16) and
        # enables FMA: the ISA is named, never "native"
        assert "native" not in f and "fma" not in f, f
    line = native.describe()
    assert line.startswith("kernels: native C (")
    chosen = " ".join(native.FP_FLAGS + native_backend.vector_flags)
    assert f", {chosen}), " in line
    assert native_backend.cache_dir in line


def test_import_is_lazy():
    """``import repro`` neither imports cffi nor looks for a compiler."""
    code = (
        "import sys, repro, repro.dsl, repro.gmg\n"
        "from repro.dsl import native\n"
        "assert 'cffi' not in sys.modules, 'cffi imported'\n"
        "assert native._backend is None, 'backend probed'\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_metrics_report_the_kernel_cache(native_backend):
    from repro.obs.metrics import MetricsRegistry

    kernel, fields, _ = apply_op_case()
    kernel.apply(fields, consts_for(kernel), {})
    registry = MetricsRegistry()
    registry.observe_native_kernels()
    registry.observe_native_kernels()  # idempotent re-registration
    gauges = registry.snapshot()["gauges"]
    assert gauges["cache.native_kernel.hits"] == native_backend.loaded
    assert gauges["cache.native_kernel.misses"] == native_backend.compiled
    assert gauges["cache.native_kernel.compile_ms"] == pytest.approx(
        native_backend.compile_ms
    )
    assert native_backend.loaded + native_backend.compiled > 0


# ----------------------------------------------------------------------
# (e) the shared-object cache
# ----------------------------------------------------------------------
def test_second_compiled_kernel_shares_the_loaded_object(native_backend):
    first = CompiledKernel(library.SMOOTH_RESIDUAL, 4)
    fields = random_fields(first, GRIDS["lexicographic"](4), np.float64)
    first.apply(fields, consts_for(first), {})
    tally = (native_backend.compiled, native_backend.loaded)
    second = CompiledKernel(library.SMOOTH_RESIDUAL, 4)
    second.apply(fields, consts_for(second), {})
    assert (native_backend.compiled, native_backend.loaded) == tally
    dtype = np.dtype(np.float64)
    assert second.native_kernel(native_backend, dtype) is first.native_kernel(
        native_backend, dtype
    )


_CHILD = """
import hashlib, json
from repro.dsl import native
from repro.gmg import GMGSolver, SolverConfig
solver = GMGSolver(SolverConfig(global_cells=16, num_levels=2, brick_dim=4,
                                max_vcycles=3))
result = solver.solve()
print(json.dumps({
    "stats": native.stats(),
    "reasons": native.fallback_reasons(),
    "history": [h.hex() for h in result.residual_history],
    "solution": hashlib.sha1(solver.solution().tobytes()).hexdigest(),
}))
"""


def spawn_child(cache_home):
    env = dict(os.environ, XDG_CACHE_HOME=str(cache_home))
    return subprocess.Popen(
        [sys.executable, "-c", _CHILD], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def child_report(child):
    out, err = child.communicate(timeout=300)
    assert child.returncode == 0, err
    return json.loads(out.splitlines()[-1])


def test_fresh_process_loads_without_compiling(tmp_path):
    cold = child_report(spawn_child(tmp_path))
    assert cold["stats"]["misses"] > 0 and cold["stats"]["hits"] == 0
    assert cold["stats"]["compile_ms"] > 0
    assert cold["reasons"] == []
    built = sorted(p.name for p in (tmp_path / "repro" / "kernels").iterdir())
    assert built and all(name.endswith((".so", ".c")) for name in built)
    warm = child_report(spawn_child(tmp_path))
    assert warm["stats"] == {
        "hits": cold["stats"]["misses"], "misses": 0, "compile_ms": 0.0
    }
    assert warm["history"] == cold["history"]
    assert warm["solution"] == cold["solution"]
    after = sorted(p.name for p in (tmp_path / "repro" / "kernels").iterdir())
    assert after == built


def corrupt_cached_objects(cache_home) -> int:
    """Swap every cached shared object for bytes that will not load (a
    truncated copy, another architecture's build); how many."""
    objects = list((cache_home / "repro" / "kernels").glob("*.so"))
    for so in objects:
        garbage = so.with_suffix(".garbage")
        garbage.write_bytes(b"\x7fELF, but not for long")
        os.replace(garbage, so)
    return len(objects)


def test_unloadable_cached_object_is_rebuilt_in_place(tmp_path):
    cold = child_report(spawn_child(tmp_path))
    corrupted = corrupt_cached_objects(tmp_path)
    assert corrupted == cold["stats"]["misses"] > 0
    repaired = child_report(spawn_child(tmp_path))
    assert repaired["reasons"] == []
    assert repaired["stats"]["misses"] == corrupted  # rebuilt: compiled
    assert repaired["stats"]["hits"] == 0
    assert repaired["history"] == cold["history"]
    assert repaired["solution"] == cold["solution"]
    warm = child_report(spawn_child(tmp_path))
    assert warm["stats"]["hits"] == corrupted and warm["stats"]["misses"] == 0


def test_racing_processes_repair_an_unloadable_cache(tmp_path):
    cold = child_report(spawn_child(tmp_path))
    assert corrupt_cached_objects(tmp_path)
    racers = [spawn_child(tmp_path) for _ in range(3)]
    reports = [child_report(child) for child in racers]
    assert all(r["reasons"] == [] for r in reports)
    assert {r["solution"] for r in reports} == {cold["solution"]}
    leftovers = [
        p.name for p in (tmp_path / "repro" / "kernels").iterdir()
        if not p.name.endswith((".so", ".c"))
    ]
    assert leftovers == []


def test_unloadable_object_that_cannot_be_rebuilt_falls_back(
    monkeypatch, tmp_path, reasons, caplog
):
    builder = native.Backend.probe(cache_dir=str(tmp_path / "built"))
    with_backend(monkeypatch, builder)
    kernel, fields, _ = apply_op_case()
    kernel.apply(fields, consts_for(kernel), {})
    (so,) = (tmp_path / "built").glob("*.so")
    # a truncated copy under another path: this process has ``so`` open,
    # and dlopen answers an already-loaded path without reading it
    backend = native.Backend.probe(cache_dir=str(tmp_path / "copied"))
    (tmp_path / "copied" / so.name).write_bytes(so.read_bytes()[:100])
    backend.cc = str(tmp_path / "no-such-compiler")
    with_backend(monkeypatch, backend)
    assert_fell_back(*apply_op_case(), reasons, caplog, "cannot build")
    assert (backend.compiled, backend.loaded) == (0, 0)


def test_racing_processes_both_succeed(tmp_path):
    racers = [spawn_child(tmp_path) for _ in range(3)]
    reports = [child_report(child) for child in racers]
    assert all(r["reasons"] == [] for r in reports)
    assert len({r["solution"] for r in reports}) == 1
    assert len({tuple(r["history"]) for r in reports}) == 1
    leftovers = [
        p.name for p in (tmp_path / "repro" / "kernels").iterdir()
        if not p.name.endswith((".so", ".c"))
    ]
    assert leftovers == []
