"""Native kernels at every vector ISA the host runs: the same bytes.

The backend builds every kernel with the widest vector ISA the CPU runs
(``native.vector_flags``).  These tests build the hot ``B = 8`` kernels
— the fused smoothers, the convergence check's ``applyOp>residual`` and
the inter-grid operators, in fp64 and fp32 — at every level the host
can execute, each in its own cache, and pin every output byte of every
level to the NumPy kernels on inputs holding NaN, infinities and
subnormals — a stencil's NaN as a NaN: which NaN's sign an add of two
keeps follows operand order, which C does not fix (the native kernels
differ from NumPy there at the baseline too).  A level the CPU lacks is
skipped by name.  They also pin
the selection (feature table to flags, flags to cache name), the
baseline retry when a compiler rejects the vector flags, and the rule
that no flag set may contract, re-associate or carry excess precision.
"""

from concurrent.futures import ThreadPoolExecutor
import logging
import subprocess

import numpy as np
import pytest

from repro.bricks import BrickGrid
from repro.dsl import library, native
from repro.dsl.codegen import compile_stencil
from tests.conftest import numpy_path
from tests.test_intergrid_kernels import SPECIALS, level_pair, run_op, stored
from tests.test_native_kernels import (
    apply_op_case,
    assert_same_bytes,
    clone,
    consts_for,
    random_fields,
    with_backend,
)

#: NaN and infinities in the content make NumPy warn; the bytes are the point
pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value:RuntimeWarning", "ignore:overflow:RuntimeWarning"
)

B = 8

#: the vector ISA levels, by name: the baseline, then native.VECTOR_ISAS
LEVELS = {"baseline": (None, ())} | {
    feature.lower(): (feature, flags) for feature, flags in native.VECTOR_ISAS
}

STENCILS = (
    library.FUSED_SMOOTH_RESIDUAL,
    library.FUSED_SMOOTH,
    library.FUSED_APPLY_RESIDUAL,
)
KERNELS = [s.name for s in STENCILS] + list(native.INTERGRID_OPS)
DTYPES = {"fp64": np.float64, "fp32": np.float32}


def runnable(level: str) -> bool:
    feature, _ = LEVELS[level]
    return feature is None or bool(native._cpu_features().get(feature))


def build_all(backend: native.Backend) -> None:
    """Build (or load) every kernel of :data:`KERNELS` in both dtypes."""
    for dtype in DTYPES.values():
        for stencil in STENCILS:
            native.load_kernel(backend, compile_stencil(stencil, B), np.dtype(dtype))
        for op in native.INTERGRID_OPS:
            backend.kernel(op, native.generate_intergrid_source(op, B, dtype))


@pytest.fixture(scope="module")
def backends(tmp_path_factory):
    """One backend per runnable level, its kernels built up front, the
    levels side by side: the process's own where its flags are the
    level's (its cache is shared with the rest of the suite), else one
    with a scratch cache of its own."""
    process = native.resolve_backend()
    if process.reason is not None:
        pytest.skip(f"no native kernels: {process.reason}")
    out = {}
    for level, (_, flags) in LEVELS.items():
        if not runnable(level):
            continue
        if flags == process.vector_flags:
            out[level] = process
        else:
            scratch = tmp_path_factory.mktemp(f"kernels-{level}")
            out[level] = native.Backend.probe(cache_dir=str(scratch))
            out[level].vector_flags = flags
    with ThreadPoolExecutor(max_workers=len(out)) as pool:
        list(pool.map(build_all, out.values()))
    return out


def quieted(fields):
    """Copies of ``fields`` with every NaN the quiet NaN: equal bytes
    then mean equal bits everywhere and NaN in the same cells."""
    out = clone(fields)
    for f in out.values():
        np.copyto(f.data, np.nan, where=np.isnan(f.data))
    return out


def specials_fields(kernel, dtype, seed):
    """Random fields on a shelled ``B``-brick grid, every slot sprinkled
    with signed zeros, NaN, infinities and subnormals."""
    fields = random_fields(kernel, BrickGrid((2, 2, 2), B), dtype, seed)
    rng = np.random.default_rng(seed + 1)
    tiny = np.finfo(dtype).smallest_subnormal
    for f in fields.values():
        pick = rng.random(f.data.shape)
        special = pick < 0.02
        f.data[special] = rng.choice((*SPECIALS, -np.nan), size=int(special.sum()))
        sub = (pick >= 0.02) & (pick < 0.04)
        f.data[sub] = tiny * rng.integers(-40, 40, size=int(sub.sum()))
    return fields


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", KERNELS)
@pytest.mark.parametrize("level", LEVELS)
def test_every_isa_gives_numpy_bytes(backends, monkeypatch, level, name, dtype):
    """The kernel built at ``level`` leaves every output byte NumPy's —
    so every level's bytes are every other's."""
    if not runnable(level):
        pytest.skip(f"this CPU does not run {level}")
    backend = backends[level]
    with_backend(monkeypatch, backend)
    if name in native.INTERGRID_OPS:
        args = (B, DTYPES[dtype], "shelled", 1, 44)
        got = level_pair(*args)
        calls = backend.intergrid
        run_op(name, *got)
        assert backend.intergrid == calls + 1, "NumPy ran"
        want = level_pair(*args)
        with numpy_path():
            run_op(name, *want)
        assert stored(*got) == stored(*want)
        return
    kernel = compile_stencil(next(s for s in STENCILS if s.name == name), B)
    fields = specials_fields(kernel, DTYPES[dtype], seed=44)
    oracle = clone(fields)
    with numpy_path():
        kernel.apply(oracle, consts_for(kernel), {}, sweeps=3)
    workspace: dict = {}
    kernel.apply(fields, consts_for(kernel), workspace, sweeps=3)
    assert isinstance(workspace.get(kernel), native.BoundCall), "NumPy ran"
    assert_same_bytes(quieted(fields), quieted(oracle), kernel, sweeps=3)


@pytest.mark.parametrize(
    "features, level",
    [
        ({}, "baseline"),
        ({"AVX": True, "AVX2": False, "AVX512F": False}, "baseline"),
        ({"AVX": True, "AVX2": True, "AVX512F": False}, "avx2"),
        ({"AVX2": True, "AVX512F": True}, "avx512f"),
        ({"NEON": True, "ASIMD": True}, "baseline"),
    ],
    ids=["no-table", "avx", "avx2", "avx512f", "arm"],
)
def test_probe_picks_the_widest_isa_the_cpu_runs(
    native_backend, monkeypatch, tmp_path, features, level
):
    """From NumPy's feature table, with no subprocess beyond the
    compiler's ``--version``."""
    monkeypatch.setattr(native, "_cpu_features", lambda: features)
    runs = []
    real = subprocess.run
    monkeypatch.setattr(
        native.subprocess, "run", lambda *a, **k: runs.append(a) or real(*a, **k)
    )
    backend = native.Backend.probe(cache_dir=str(tmp_path))
    assert backend.vector_flags == LEVELS[level][1]
    assert len(runs) == 1


def test_each_level_names_its_own_cache_file():
    """So no host loads an object built for an ISA it lacks."""
    backend = native.Backend()
    names = {
        backend._filename("k", "src", native.CFLAGS + flags)
        for _, flags in LEVELS.values()
    }
    assert len(names) == len(LEVELS)


def test_the_process_builds_at_the_widest_level_the_cpu_runs(native_backend):
    assert native._cpu_features(), "NumPy's feature table was not found"
    widest = next(
        (flags for level, (feature, flags) in LEVELS.items()
         if feature and runnable(level)),
        (),
    )
    assert native_backend.vector_flags == native.vector_flags() == widest


def test_rejected_vector_flags_fall_back_to_baseline_c(
    native_backend, monkeypatch, tmp_path, caplog
):
    """A compiler that rejects the vector flags still builds the kernel,
    once more at the baseline: C, not NumPy, under the baseline's name."""
    reasons: list[str] = []
    monkeypatch.setattr(native, "_fallback_reasons", reasons)
    caplog.set_level(logging.WARNING, logger=native.log.name)
    backend = native.Backend.probe(cache_dir=str(tmp_path))
    backend.vector_flags = ("-mno-such-vector-isa",)
    with_backend(monkeypatch, backend)
    kernel, fields, oracle = apply_op_case()
    reasons.clear()  # drop what computing the oracle noted
    workspace: dict = {}
    kernel.apply(fields, consts_for(kernel), workspace)
    assert isinstance(workspace.get(kernel), native.BoundCall)
    assert_same_bytes(fields, oracle, kernel)
    assert reasons == []
    assert (backend.compiled, backend.baseline) == (1, 1)
    source = native.generate_c_source(
        kernel.stencil, kernel.analysis, kernel.brick_dim, np.float64
    )
    baseline = backend._filename(kernel.stencil.name, source, native.CFLAGS)
    assert [p.name for p in tmp_path.glob("*.so")] == [baseline]
    assert "-mno-such-vector-isa" in caplog.text
    assert "1 compiled (1 without vector flags)" in backend.describe()


def test_vector_flags_keep_the_arithmetic_exact(native_backend):
    """No flag set may fuse multiply-adds or compute in excess
    precision: the compiler itself defines neither ``__FMA__`` nor a
    non-zero ``FLT_EVAL_METHOD`` under any of them."""
    for _, flags in LEVELS.values():
        done = subprocess.run(
            [native_backend.cc, *native.CFLAGS, *flags, "-dM", "-E", "-x", "c", "-"],
            input="", capture_output=True, text=True, check=True, timeout=60,
        )
        macros = dict(
            line.split(" ", 2)[1:] for line in done.stdout.splitlines()
            if line.count(" ") >= 2
        )
        assert "__FMA__" not in macros, flags
        assert macros.get("__FLT_EVAL_METHOD__", "0") == "0", flags
