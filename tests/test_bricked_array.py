"""BrickedArray: round-trips, ghost handling, reductions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bricks import BrickGrid, BrickedArray
from tests.conftest import zero_ghost


class TestConstruction:
    def test_zeros(self, small_grid):
        f = BrickedArray.zeros(small_grid)
        assert f.data.shape == (small_grid.num_slots, 4, 4, 4)
        assert not f.data.any()

    def test_from_existing_data(self, small_grid):
        data = np.ones((small_grid.num_slots, 4, 4, 4))
        f = BrickedArray(small_grid, data)
        assert f.data is data

    def test_rejects_wrong_shape(self, small_grid):
        with pytest.raises(ValueError):
            BrickedArray(small_grid, np.zeros((2, 4, 4, 4)))

    def test_rejects_wrong_dtype(self, small_grid):
        data = np.zeros((small_grid.num_slots, 4, 4, 4), dtype=np.float32)
        with pytest.raises(ValueError):
            BrickedArray(small_grid, data)


class TestRoundTrip:
    def test_ijk_roundtrip(self, random_field):
        field, dense = random_field
        assert np.array_equal(field.to_ijk(), dense)

    def test_set_interior_rejects_wrong_shape(self, small_grid):
        f = BrickedArray.zeros(small_grid)
        with pytest.raises(ValueError):
            f.set_interior(np.zeros((4, 4, 4)))

    def test_brick_cells_are_contiguous(self, small_grid, rng):
        """The defining layout property: one brick = one memory run."""
        dense = rng.random(small_grid.shape_cells)
        f = BrickedArray.from_ijk(small_grid, dense)
        s = small_grid.slot_of((1, 1, 1))
        brick = f.data[s]
        assert brick.flags["C_CONTIGUOUS"]
        assert np.array_equal(brick, dense[4:8, 4:8, 4:8])

    def test_roundtrip_is_ordering_independent(self, rng):
        dense = rng.random((8, 8, 8))
        a = BrickedArray.from_ijk(BrickGrid((2, 2, 2), 4, 1, "lexicographic"), dense)
        b = BrickedArray.from_ijk(BrickGrid((2, 2, 2), 4, 1, "surface-major"), dense)
        assert np.array_equal(a.to_ijk(), b.to_ijk())


class TestGhost:
    def test_periodic_fill_wraps(self, random_field):
        field, dense = random_field
        field.fill_ghost_periodic()
        g = field.grid
        # ghost brick at (-1, 0, 0) should equal interior brick (3, 0, 0)
        ghost = field.data[g.slot_of((-1, 0, 0))]
        assert np.array_equal(ghost, dense[12:16, 0:4, 0:4])

    def test_zero_ghost(self, random_field):
        field, dense = random_field
        field.fill_ghost_periodic()
        zero_ghost(field)
        assert not field.data[field.grid.ghost_slots].any()
        assert np.array_equal(field.to_ijk(), dense)


class TestWholeField:
    def test_copy_is_deep(self, random_field):
        field, _ = random_field
        c = field.copy()
        c.data += 1.0
        assert not np.array_equal(c.data, field.data)
        assert c.grid is field.grid

    def test_fill(self, small_grid):
        f = BrickedArray.zeros(small_grid)
        f.fill(3.5)
        assert (f.data == 3.5).all()

    def test_max_abs_interior_ignores_ghost(self, small_grid):
        f = BrickedArray.zeros(small_grid)
        f.data[small_grid.ghost_slots] = 99.0
        f.data[small_grid.interior_slots[0], 0, 0, 0] = -2.5
        assert f.max_abs_interior() == 2.5


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(1, 3),
    b=st.sampled_from([2, 3, 4]),
    ordering=st.sampled_from(["lexicographic", "surface-major"]),
    seed=st.integers(0, 2**31),
)
def test_roundtrip_property(n, b, ordering, seed):
    grid = BrickGrid((n, n, n), b, ghost_bricks=1, ordering=ordering)
    dense = np.random.default_rng(seed).random(grid.shape_cells)
    assert np.array_equal(BrickedArray.from_ijk(grid, dense).to_ijk(), dense)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 3),
    b=st.sampled_from([2, 3, 4]),
    r=st.integers(1, 2),
    ordering=st.sampled_from(["lexicographic", "surface-major"]),
    seed=st.integers(0, 2**31),
)
def test_deep_shell_periodic_matches_dense_roll(n, b, r, ordering, seed):
    """Periodic fill then halo gather: every interior brick's extended
    block — faces, edges, AND corners of the shell, at any supported
    radius — must equal the dense periodic neighbourhood.

    The reference is a plain ``np.roll``: rolling the dense field by
    ``r - origin`` puts the brick's wrapped ``(B + 2r)³`` neighbourhood
    at the front of the array (tiled, so a shell deeper than the domain
    wraps more than once — the 1-brick-per-axis case).  Agglomerated
    gathers reassemble coarse levels through ``set_interior`` and rely
    on this shell being exact before the first smoothing kernel reads
    it.
    """
    from repro.bricks import gather_extended

    grid = BrickGrid((n, n, n), b, ghost_bricks=1, ordering=ordering)
    dense = np.random.default_rng(seed).random(grid.shape_cells)
    field = BrickedArray.zeros(grid)
    field.set_interior(dense)
    field.fill_ghost_periodic()
    extended = gather_extended(field, r)
    for bi in range(n):
        for bj in range(n):
            for bk in range(n):
                rolled = np.roll(
                    dense,
                    shift=(r - bi * b, r - bj * b, r - bk * b),
                    axis=(0, 1, 2),
                )
                expected = np.tile(rolled, (3, 3, 3))[
                    : b + 2 * r, : b + 2 * r, : b + 2 * r
                ]
                got = extended[grid.slot_of((bi, bj, bk))]
                np.testing.assert_array_equal(
                    got, expected,
                    err_msg=f"brick {(bi, bj, bk)} shell wrong "
                            f"(B={b}, r={r}, n={n}, ordering={ordering})",
                )
