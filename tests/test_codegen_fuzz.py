"""Property-based fuzzing of the DSL -> kernel pipeline.

Random stencils (random offsets within radius 2, random constant
coefficients, one or two fused statements) are compiled and executed on
bricked data, then checked against a dense ``np.roll`` oracle built
from the same structure.  This is the broadest correctness net over the
code generator: any mis-translated slice, botched CSE hoist, or halo
mix-up shows up as a numeric mismatch.

Every random stencil runs through both emission targets — the native C
kernel (where one can be built) and the NumPy kernel — which must agree
byte for byte, on every cell still valid after the sweeps, before either
is compared with the oracle, for one application and for windows of two
and three.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bricks import BrickGrid, BrickedArray
from repro.dsl import Grid, Stencil, compile_stencil, indices
from tests.conftest import numpy_path
from tests.test_native_kernels import assert_same_bytes, clone


def apply_on_both_backends(stencil, brick_dim, fields, consts):
    """Apply ``stencil`` to ``fields`` through the backend ``apply``
    picks, and to a copy through the NumPy kernels; the two must leave
    identical bytes in every field, on every cell still valid.  Copies of the starting fields then
    run windows of 2 and 3 sweeps on both backends, each against that
    many single NumPy applies."""
    start = clone(fields)
    twin = clone(fields)
    kernel = compile_stencil(stencil, brick_dim)
    kernel.apply(fields, consts)
    with numpy_path():
        kernel.apply(twin, consts)
    assert_same_bytes(fields, twin, kernel)
    for sweeps in (2, 3):
        singles, window, numpy_window = clone(start), clone(start), clone(start)
        kernel.apply(window, consts, sweeps=sweeps)
        with numpy_path():
            for _ in range(sweeps):
                kernel.apply(singles, consts)
            kernel.apply(numpy_window, consts, sweeps=sweeps)
        assert_same_bytes(window, singles, kernel, sweeps)
        assert_same_bytes(numpy_window, singles)


N = 8
B = 4

offsets_strategy = st.lists(
    st.tuples(
        st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)
    ),
    min_size=1,
    max_size=6,
    unique=True,
)
coeffs_strategy = st.lists(
    st.floats(-4.0, 4.0).filter(lambda c: abs(c) > 1e-3),
    min_size=1,
    max_size=6,
)


def build_stencil(offsets, coeffs):
    i, j, k = indices()
    x, out = Grid("x"), Grid("out")
    expr = None
    for (dx, dy, dz), c in zip(offsets, coeffs):
        term = c * x(i + dx, j + dy, k + dz)
        expr = term if expr is None else expr + term
    return Stencil("fuzz", [out(i, j, k).assign(expr)])


def dense_oracle(dense, offsets, coeffs):
    out = np.zeros_like(dense)
    for (dx, dy, dz), c in zip(offsets, coeffs):
        shifted = np.roll(
            np.roll(np.roll(dense, -dx, 0), -dy, 1), -dz, 2
        )
        out += c * shifted
    return out


@settings(max_examples=60, deadline=None)
@given(offsets=offsets_strategy, coeffs=coeffs_strategy, seed=st.integers(0, 2**31))
def test_random_stencil_matches_oracle(offsets, coeffs, seed):
    coeffs = (coeffs * len(offsets))[: len(offsets)]  # recycle to match
    stencil = build_stencil(offsets, coeffs)
    grid = BrickGrid((N // B,) * 3, B)
    dense = np.random.default_rng(seed).random((N, N, N))
    x = BrickedArray.from_ijk(grid, dense)
    x.fill_ghost_periodic()
    out = BrickedArray.zeros(grid)
    apply_on_both_backends(stencil, B, {"x": x, "out": out}, {})
    oracle = dense_oracle(dense, offsets, coeffs)
    np.testing.assert_allclose(out.to_ijk(), oracle, rtol=1e-11, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    offsets=offsets_strategy,
    coeffs=coeffs_strategy,
    gamma=st.floats(-1.0, 1.0),
    seed=st.integers(0, 2**31),
)
def test_random_fused_statements_are_simultaneous(offsets, coeffs, gamma, seed):
    """A fused (two-statement) kernel must evaluate both right-hand
    sides against pre-statement values, whatever the stencil."""
    coeffs = (coeffs * len(offsets))[: len(offsets)]
    i, j, k = indices()
    x, out, y = Grid("x"), Grid("out"), Grid("y")
    expr = None
    for (dx, dy, dz), c in zip(offsets, coeffs):
        term = c * x(i + dx, j + dy, k + dz)
        expr = term if expr is None else expr + term
    stencil = Stencil(
        "fuzz2",
        [
            out(i, j, k).assign(expr),
            y(i, j, k).assign(y(i, j, k) + gamma * y(i, j, k)),
        ],
    )
    grid = BrickGrid((N // B,) * 3, B)
    rng = np.random.default_rng(seed)
    dense_x, dense_y = rng.random((N, N, N)), rng.random((N, N, N))
    fields = {
        "x": BrickedArray.from_ijk(grid, dense_x),
        "y": BrickedArray.from_ijk(grid, dense_y),
        "out": BrickedArray.zeros(grid),
    }
    fields["x"].fill_ghost_periodic()
    apply_on_both_backends(stencil, B, fields, {})
    np.testing.assert_allclose(
        fields["out"].to_ijk(), dense_oracle(dense_x, offsets, coeffs),
        rtol=1e-11, atol=1e-12,
    )
    # oracle written in the kernel's own association order: with
    # gamma near -1 the subtraction cancels and (1+gamma)*y rounds
    # differently
    np.testing.assert_allclose(
        fields["y"].to_ijk(), dense_y + gamma * dense_y, rtol=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(
    offsets=offsets_strategy,
    coeffs=coeffs_strategy,
    gamma=st.floats(-1.0, 1.0),
    seed=st.integers(0, 2**31),
    dtype=st.sampled_from([np.float64, np.float32]),
)
def test_random_read_write_stencil_windows(offsets, coeffs, gamma, seed, dtype):
    """A stencil that overwrites the grid it reads through the halo
    (ping-ponged inside a window), updates another in place and writes
    a third it never reads (stored by the last sweep only): windows
    agree with single applies on both backends, whatever the shape."""
    coeffs = (coeffs * len(offsets))[: len(offsets)]
    i, j, k = indices()
    x, out, y = Grid("x"), Grid("out"), Grid("y")
    expr = None
    for (dx, dy, dz), c in zip(offsets, coeffs):
        term = c * x(i + dx, j + dy, k + dz)
        expr = term if expr is None else expr + term
    stencil = Stencil(
        "fuzz3",
        [
            x(i, j, k).assign(expr * 0.125 + gamma * y(i, j, k)),
            y(i, j, k).assign(y(i, j, k) - gamma * x(i, j, k)),
            out(i, j, k).assign(expr - y(i, j, k)),
        ],
    )
    grid = BrickGrid((N // B,) * 3, B)
    rng = np.random.default_rng(seed)
    fields = {}
    for g in ("x", "y", "out"):
        fields[g] = BrickedArray.zeros(grid, dtype=dtype)
        fields[g].data[...] = rng.standard_normal(fields[g].data.shape)
    apply_on_both_backends(stencil, B, fields, {})


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    ordering=st.sampled_from(["lexicographic", "surface-major"]),
    dims=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
)
def test_seven_point_invariant_under_layout(seed, ordering, dims):
    """The canonical 7-point result must not depend on brick grid shape
    or storage ordering."""
    from repro.dsl import APPLY_OP

    rng = np.random.default_rng(seed)
    cells = tuple(4 * d for d in dims)
    dense = rng.random(cells)
    grid = BrickGrid(dims, 4, ordering=ordering)
    x = BrickedArray.from_ijk(grid, dense)
    x.fill_ghost_periodic()
    out = BrickedArray.zeros(grid)
    apply_on_both_backends(
        APPLY_OP, 4, {"x": x, "Ax": out}, {"alpha": -6.0, "beta": 1.0}
    )
    oracle = -6.0 * dense + sum(
        np.roll(dense, s, a) for a in range(3) for s in (1, -1)
    )
    # association order differs between oracle and kernel: atol absorbs
    # the cancellation noise near zero
    np.testing.assert_allclose(out.to_ijk(), oracle, rtol=1e-12, atol=1e-13)
