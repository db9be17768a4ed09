"""Level construction and the V-cycle operators."""

import numpy as np
import pytest

from tests.conftest import reference_apply_op, zero_ghost
from repro.gmg import operators as ops
from repro.gmg.level import Level, level_brick_dim
from repro.gmg.problem import rhs_field
from repro.instrument import Recorder


class TestLevelBrickDim:
    def test_requested_when_divisible(self):
        assert level_brick_dim(32, 8) == 8

    def test_shrinks_to_fit(self):
        assert level_brick_dim(4, 8) == 4

    def test_falls_back_to_divisor(self):
        assert level_brick_dim(12, 8) == 6

    def test_invalid(self):
        with pytest.raises(ValueError):
            level_brick_dim(0, 8)


class TestLevel:
    def test_construction(self):
        lv = Level(0, (16, 16, 16), 4, h=1 / 16)
        assert lv.num_points == 4096
        assert lv.ghost_depth_cells == 4
        assert set(lv.fields()) == {"x", "b", "Ax", "r"}

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            Level(0, (10, 10, 10), 4, h=0.1)

    def test_init_zero(self):
        lv = Level(0, (8, 8, 8), 4, h=1 / 8)
        lv.x.fill(3.0)
        lv.init_zero()
        assert not lv.x.data.any()


@pytest.fixture
def level(rng):
    lv = Level(0, (16, 16, 16), 4, h=1 / 16)
    lv.b.set_interior(rhs_field((16, 16, 16), 1 / 16))
    lv.x.set_interior(rng.random((16, 16, 16)))
    for f in lv.fields().values():
        f.fill_ghost_periodic()
    return lv


class TestStencilOperators:
    def test_apply_op_matches_oracle(self, level):
        ops.apply_op(level)
        c = level.constants
        oracle = reference_apply_op(level.x.to_ijk(), c.alpha, c.beta)
        np.testing.assert_allclose(level.Ax.to_ijk(), oracle, rtol=1e-13)

    def test_residual_kernel(self, level):
        ops.apply_op(level)
        ops.residual(level)
        np.testing.assert_allclose(
            level.r.to_ijk(), level.b.to_ijk() - level.Ax.to_ijk(), rtol=1e-13
        )

    def test_recorder_counts(self, level):
        rec = Recorder()
        ops.apply_op(level, rec)
        ops.residual(level, rec)
        assert rec.kernel_counts() == {
            (0, "applyOp"): 1,
            (0, "residual"): 1,
        }
        assert rec.kernel_points()[(0, "applyOp")] == 4096


@pytest.fixture
def level_pair(rng):
    fine = Level(0, (16, 16, 16), 4, h=1 / 16)
    coarse = Level(1, (8, 8, 8), 4, h=2 / 16)
    fine.r.set_interior(rng.random((16, 16, 16)))
    coarse.x.set_interior(rng.random((8, 8, 8)))
    return fine, coarse


class TestInterGridOperators:
    def test_restriction_is_block_average(self, level_pair):
        fine, coarse = level_pair
        ops.restriction(fine, coarse)
        r = fine.r.to_ijk()
        oracle = r.reshape(8, 2, 8, 2, 8, 2).mean(axis=(1, 3, 5))
        np.testing.assert_allclose(coarse.b.to_ijk(), oracle, rtol=1e-14)

    def test_restriction_preserves_constants(self, level_pair):
        fine, coarse = level_pair
        fine.r.set_interior(np.full((16, 16, 16), 2.5))
        ops.restriction(fine, coarse)
        np.testing.assert_allclose(coarse.b.to_ijk(), 2.5)

    def test_interpolation_increments(self, level_pair):
        fine, coarse = level_pair
        fine.x.set_interior(np.zeros((16, 16, 16)))
        ops.interpolation_increment(coarse, fine)
        xc = coarse.x.to_ijk()
        oracle = np.repeat(np.repeat(np.repeat(xc, 2, 0), 2, 1), 2, 2)
        np.testing.assert_allclose(fine.x.to_ijk(), oracle, rtol=1e-14)

    def test_interpolation_adds_to_existing(self, level_pair, rng):
        fine, coarse = level_pair
        base = rng.random((16, 16, 16))
        fine.x.set_interior(base)
        ops.interpolation_increment(coarse, fine)
        xc = coarse.x.to_ijk()
        oracle = base + np.repeat(np.repeat(np.repeat(xc, 2, 0), 2, 1), 2, 2)
        np.testing.assert_allclose(fine.x.to_ijk(), oracle, rtol=1e-14)

    def test_restrict_after_interpolate_is_identity(self, level_pair):
        """R(I(x)) = x for piecewise-constant I and volume-average R."""
        fine, coarse = level_pair
        fine.x.set_interior(np.zeros((16, 16, 16)))
        ops.interpolation_increment(coarse, fine)
        fine.r.set_interior(fine.x.to_ijk())
        ops.restriction(fine, coarse)
        np.testing.assert_allclose(
            coarse.b.to_ijk(), coarse.x.to_ijk(), rtol=1e-14
        )

    def test_dense_fallback_matches_brick_native(self, rng):
        """Mismatched brick dims route through the dense path; results
        must agree with the brick-native path bit-for-bit."""
        data = rng.random((16, 16, 16))
        # brick-native: both levels use 4^3 bricks
        f1, c1 = Level(0, (16,) * 3, 4, 1 / 16), Level(1, (8,) * 3, 4, 1 / 8)
        # fallback: coarse level uses 8^3 bricks (fine 4^3 != coarse 8^3)
        f2, c2 = Level(0, (16,) * 3, 4, 1 / 16), Level(1, (8,) * 3, 8, 1 / 8)
        for f in (f1, f2):
            f.r.set_interior(data)
        ops.restriction(f1, c1)
        ops.restriction(f2, c2)
        np.testing.assert_array_equal(c1.b.to_ijk(), c2.b.to_ijk())

    def test_interpolation_fallback_matches(self, rng):
        coarse_data = rng.random((8, 8, 8))
        f1, c1 = Level(0, (16,) * 3, 4, 1 / 16), Level(1, (8,) * 3, 4, 1 / 8)
        f2, c2 = Level(0, (16,) * 3, 4, 1 / 16), Level(1, (8,) * 3, 8, 1 / 8)
        for c in (c1, c2):
            c.x.set_interior(coarse_data)
        ops.interpolation_increment(c1, f1)
        ops.interpolation_increment(c2, f2)
        np.testing.assert_array_equal(f1.x.to_ijk(), f2.x.to_ijk())

    def test_restriction_needs_no_ghost_data(self, level_pair):
        """The paper's claim: inter-level ops need no neighbour comm."""
        fine, coarse = level_pair
        zero_ghost(fine.r)  # poison-free: ghosts untouched
        ops.restriction(fine, coarse)
        r = fine.r.to_ijk()
        oracle = r.reshape(8, 2, 8, 2, 8, 2).mean(axis=(1, 3, 5))
        np.testing.assert_allclose(coarse.b.to_ijk(), oracle)

    def test_recorder_attribution(self, level_pair):
        fine, coarse = level_pair
        rec = Recorder()
        ops.restriction(fine, coarse, rec)
        ops.interpolation_increment(coarse, fine, rec)
        counts = rec.kernel_counts()
        # both attributed to the finer level, normalised to coarse points
        assert counts == {
            (0, "restriction"): 1,
            (0, "interpolation+increment"): 1,
        }
        assert rec.kernel_points()[(0, "restriction")] == 512
