"""The inter-grid operators: native kernels, NumPy path, one association.

Restriction and interpolation+increment run as generated C kernels
(``repro.dsl.native.generate_intergrid_source``) bound once per level
pair, with the NumPy path as fallback and oracle.  Restriction adds a
coarse cell's eight children in one explicit order
(``repro.gmg.operators.average_children``), so every level shape — one
rank's block, a merged block, a stack of blocks — restricts to the same
bits.  These tests pin the kernels to the NumPy path byte for byte, the
association to ``np.mean``'s on the brick-native shapes where the two
coincide, and a merged level's one-call restriction to the per-rank
restrictions it replaces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsl import native
from repro.gmg import SolverConfig
from repro.gmg import operators as ops
from repro.gmg.level import Level, make_level
from repro.instrument import Recorder
from tests.conftest import numpy_path
from tests.oracle import assert_matches_oracle

#: NaN and infinities in the content make NumPy warn; the bytes are the point
pytestmark = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")

DTYPES = {"fp32": np.float32, "fp64": np.float64}

#: what a residual or a correction can hold besides ordinary values
SPECIALS = (-0.0, 0.0, np.nan, np.inf, -np.inf)


def fill(level: Level, rng, specials: bool) -> None:
    """Random content in every slot of every field, ghosts included;
    with ``specials``, sprinkled with signed zeros, NaN, infinities and
    subnormals."""
    tiny = np.finfo(level.dtype).smallest_subnormal
    for f in level.fields().values():
        values = rng.standard_normal(f.data.shape) * 10.0 ** rng.integers(
            -3, 4, f.data.shape
        )
        if specials:
            pick = rng.random(f.data.shape)
            values[pick < 0.1] = rng.choice(SPECIALS, size=int((pick < 0.1).sum()))
            sub = (pick >= 0.1) & (pick < 0.15)
            values[sub] = tiny * rng.integers(-40, 40, size=int(sub.sum()))
        f.data[...] = values.astype(level.dtype)


def level_pair(B, dtype, layout, blocks, seed, specials=True):
    """A fine/coarse pair of ``B``-bricks: one rank's levels without a
    ghost shell, with one, or levels stacking ``blocks`` shelled blocks
    — filled with seeded random content."""
    shape = (2 * B, B, B)  # coarse cells: 2x1x1 coarse bricks
    ghosts = 0 if layout == "ghostless" else 1
    count = blocks if layout == "stacked" else 1

    def build(index, cells):
        return Level(
            index, cells, B, 1.0, dtype=dtype, ghost_bricks=ghosts, blocks=count
        )

    pair = build(0, tuple(2 * c for c in shape)), build(1, shape)
    rng = np.random.default_rng(seed)
    for level in pair:
        fill(level, rng, specials)
    return pair


def stored(*levels):
    return [f.data.tobytes() for lv in levels for f in lv.fields().values()]


def run_op(op, fine, coarse):
    if op == "restriction":
        ops.restriction(fine, coarse)
    else:
        ops.interpolation_increment(coarse, fine)


# ----------------------------------------------------------------------
# native against NumPy, byte for byte
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    op=st.sampled_from(native.INTERGRID_OPS),
    B=st.sampled_from([1, 2, 4, 8]),
    dtype=st.sampled_from(sorted(DTYPES)),
    layout=st.sampled_from(["ghostless", "shelled", "stacked"]),
    blocks=st.integers(1, 4),
    seed=st.integers(0, 2**31),
)
def test_native_equals_numpy_bytes(op, B, dtype, layout, blocks, seed):
    backend = native.resolve_backend()
    if backend.reason is not None:
        pytest.skip(f"no native kernels: {backend.reason}")
    args = (B, DTYPES[dtype], layout, blocks, seed)
    got = level_pair(*args)
    calls = backend.intergrid
    run_op(op, *got)
    assert backend.intergrid == calls + 1
    want = level_pair(*args)
    with numpy_path():
        run_op(op, *want)
    assert stored(*got) == stored(*want)


def test_binding_is_kept_per_level_pair(native_backend):
    fine, coarse = level_pair(4, np.float64, "shelled", 1, seed=3)
    ops.restriction(fine, coarse)
    call = coarse.workspace[("intergrid", "restriction")]
    ops.restriction(fine, coarse)
    assert coarse.workspace[("intergrid", "restriction")] is call
    assert call.reason is None


def test_refusals_name_their_reason(native_backend):
    fine, coarse = level_pair(2, np.float64, "shelled", 1, seed=5)
    table = ops._child_table(fine, coarse)
    arrays = (fine.r.data, coarse.b.data)

    def reason(arrays, table=table):
        return native.bind_intergrid(
            native_backend, "restriction", coarse.grid, arrays, table
        ).reason

    assert reason(arrays) is None
    assert reason((fine.r.data, coarse.b.data.astype(np.float32))) == "mixed field dtypes"
    assert reason((fine.r.data[:, ::-1], coarse.b.data)) == "strided field storage"
    assert reason((fine.r.data, fine.r.data[: len(coarse.b.data)])) == (
        "an output field shares storage with another field"
    )
    out_of_range = table.copy()
    out_of_range[0, 1] = len(fine.r.data)
    assert "child table" in reason(arrays, out_of_range)


# ----------------------------------------------------------------------
# the one association
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["native", "numpy"])
@pytest.mark.parametrize("dtype", sorted(DTYPES))
@pytest.mark.parametrize("B", [2, 4, 8])
@pytest.mark.parametrize("blocks", [1, 3, 8])
def test_association_equals_mean_on_brick_shapes(backend, dtype, B, blocks, request):
    """On every brick-native shape with ``B >= 2`` the explicit order is
    the one ``np.mean(axis=(2, 4, 6))`` adds in: the restriction the
    solver always computed."""
    if backend == "native":
        request.getfixturevalue("native_backend")
    fine, coarse = level_pair(B, DTYPES[dtype], "stacked", blocks, seed=B, specials=False)
    child = ops._restriction_child_map(fine, coarse)
    blocks_ = ops._assemble_fine_blocks(fine.r.data, child, B)
    want = blocks_.reshape(len(child), B, 2, B, 2, B, 2).mean(axis=(2, 4, 6))
    assert ops.average_children(
        blocks_.reshape(len(child), B, 2, B, 2, B, 2)
    ).tobytes() == want.tobytes()
    if backend == "numpy":
        with numpy_path():
            ops.restriction(fine, coarse)
    else:
        ops.restriction(fine, coarse)
    assert coarse.b.data[coarse.grid.interior_slots].tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# a merged level restricts as its ranks would
# ----------------------------------------------------------------------
def restrict_with(backend, fine, coarse):
    if backend == "numpy":
        with numpy_path():
            ops.restriction(fine, coarse)
    else:
        ops.restriction(fine, coarse)


@pytest.mark.parametrize("merged_on,ranks_on", [
    ("native", "numpy"), ("numpy", "native"), ("numpy", "numpy"),
])
@pytest.mark.parametrize("dtype", sorted(DTYPES))
@pytest.mark.parametrize("rank_cells,B", [
    (8, 4),  # brick-native on both sides
    (4, 4),  # the per-rank coarse level shrinks its bricks: dense path
    (4, 2),
])
def test_merged_restriction_equals_per_rank(
    merged_on, ranks_on, dtype, rank_cells, B, request
):
    """One restriction of a 2x2x2-rank merged level equals the eight
    per-rank restrictions assembled, byte for byte — the invariant
    agglomeration's bit-identity rests on."""
    if "native" in (merged_on, ranks_on):
        request.getfixturevalue("native_backend")
    dt = DTYPES[dtype]
    merged_fine = make_level(0, (2 * rank_cells,) * 3, B, 1.0, dtype=dt)
    merged_coarse = make_level(1, (rank_cells,) * 3, B, 1.0, dtype=dt)
    rank_fine = make_level(0, (rank_cells,) * 3, B, 1.0, dtype=dt)
    rank_coarse = make_level(1, (rank_cells // 2,) * 3, B, 1.0, dtype=dt)
    fill(merged_fine, np.random.default_rng(rank_cells + B), specials=True)
    restrict_with(merged_on, merged_fine, merged_coarse)

    dense = merged_fine.r.to_ijk()
    assembled = np.empty((rank_cells,) * 3, dtype=dt)
    p, q = rank_cells, rank_cells // 2
    for i in range(2):
        for j in range(2):
            for k in range(2):
                rank_fine.r.set_interior(
                    dense[i * p:(i + 1) * p, j * p:(j + 1) * p, k * p:(k + 1) * p]
                )
                restrict_with(ranks_on, rank_fine, rank_coarse)
                assembled[
                    i * q:(i + 1) * q, j * q:(j + 1) * q, k * q:(k + 1) * q
                ] = rank_coarse.b.to_ijk()
    assert merged_coarse.b.to_ijk().tobytes() == assembled.tobytes()


@pytest.mark.parametrize("precision", ["fp64", "fp32"])
def test_agglomerated_solve_matches_oracle(precision):
    """Merged levels restrict in one call over the stack: the solve is
    still the per-rank NumPy schedule's, byte for byte."""
    assert_matches_oracle(SolverConfig(
        global_cells=32, num_levels=3, brick_dim=4, rank_dims=(2, 2, 2),
        agglomerate_threshold=600, precision=precision, max_vcycles=6,
    ))


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
def test_intergrid_calls_have_their_own_count(native_backend):
    from repro.gmg import GMGSolver
    from repro.obs.metrics import MetricsRegistry

    config = SolverConfig(global_cells=16, num_levels=3, brick_dim=4)
    solver = GMGSolver(config)
    solver.vcycle.run()  # binds every kernel
    before = native.call_counts()
    solver.vcycle.run()
    after = native.call_counts()
    # one restriction and one interpolation per level pair, over the stack
    assert after["intergrid"] - before["intergrid"] == 2 * (config.num_levels - 1)
    # stencil calls count stencil kernels only: one per ghostless visit
    assert after["calls"] - before["calls"] == 2 * (config.num_levels - 1) + 1
    registry = MetricsRegistry()
    registry.observe_native_kernels()
    gauges = registry.snapshot()["gauges"]
    assert gauges["kernels.native.intergrid"] == native_backend.intergrid
    assert f"{native_backend.intergrid} inter-grid calls" in native.describe()


def test_recorded_work_is_unchanged():
    rec = Recorder()
    fine, coarse = level_pair(4, np.float64, "stacked", 3, seed=1)
    ops.restriction(fine, coarse, rec)
    ops.interpolation_increment(coarse, fine, rec)
    assert rec.kernel_counts() == {(0, "restriction"): 1, (0, "interpolation+increment"): 1}
    assert rec.kernel_points()[(0, "restriction")] == coarse.num_points
