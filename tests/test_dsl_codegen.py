"""Generated kernels must match dense NumPy oracles exactly."""

import numpy as np
import pytest

from tests.conftest import reference_apply_op, valid_cells
from repro.bricks import BrickGrid, BrickedArray
from repro.dsl import (
    APPLY_OP,
    SMOOTH,
    SMOOTH_RESIDUAL,
    CompiledKernel,
    Grid,
    Stencil,
    compile_stencil,
    generate_source,
    indices,
)


@pytest.fixture
def fields(small_grid, rng):
    dense = {name: rng.random(small_grid.shape_cells) for name in "x b Ax r".split()}
    out = {}
    for name, arr in dense.items():
        f = BrickedArray.from_ijk(small_grid, arr)
        f.fill_ghost_periodic()
        out[name] = f
    return out, dense


class TestGeneratedSource:
    def test_source_is_valid_python(self):
        src = generate_source(APPLY_OP, 4)
        compile(src, "<test>", "exec")

    def test_source_mentions_constants(self):
        src = generate_source(APPLY_OP, 4)
        assert "consts['alpha']" in src
        assert "consts['beta']" in src

    def test_cse_hoists_shared_reads(self):
        src = generate_source(SMOOTH_RESIDUAL, 4)
        # Ax and b are each read by both statements -> hoisted once
        assert src.count("bufs['Ax']") == 1
        assert src.count("bufs['b']") == 1

    def test_compute_then_store(self):
        """All _rhs temps are computed before any output store."""
        src = generate_source(SMOOTH_RESIDUAL, 4)
        first_store = src.index("outs[")
        assert src.rindex("_rhs1 =") < first_store

    def test_slices_reflect_brick_dim(self):
        src4 = generate_source(APPLY_OP, 4)
        src8 = generate_source(APPLY_OP, 8)
        assert "1:5" in src4 and "1:9" in src8


class TestKernelExecution:
    def test_apply_op_matches_oracle(self, fields):
        bricked, dense = fields
        k = compile_stencil(APPLY_OP, 4)
        k.apply(bricked, {"alpha": -6.0, "beta": 1.0})
        oracle = reference_apply_op(dense["x"], -6.0, 1.0)
        np.testing.assert_allclose(bricked["Ax"].to_ijk(), oracle, rtol=1e-14)

    def test_smooth_matches_oracle(self, fields):
        bricked, dense = fields
        k = compile_stencil(SMOOTH, 4)
        k.apply(bricked, {"gamma": 0.01})
        oracle = dense["x"] + 0.01 * dense["Ax"] - 0.01 * dense["b"]
        np.testing.assert_allclose(bricked["x"].to_ijk(), oracle, rtol=1e-14)

    def test_smooth_residual_uses_preupdate_values(self, fields):
        bricked, dense = fields
        k = compile_stencil(SMOOTH_RESIDUAL, 4)
        k.apply(bricked, {"gamma": 0.01})
        # residual computed from pre-update Ax/b, even though x changes
        np.testing.assert_allclose(
            bricked["r"].to_ijk(), dense["b"] - dense["Ax"], rtol=1e-14
        )
        np.testing.assert_allclose(
            bricked["x"].to_ijk(),
            dense["x"] + 0.01 * dense["Ax"] - 0.01 * dense["b"],
            rtol=1e-14,
        )

    def test_division_kernel(self, fields):
        bricked, dense = fields
        i, j, k = indices()
        x, y = Grid("x"), Grid("r")
        s = Stencil("halve", [y(i, j, k).assign(x(i, j, k) / 2.0)])
        compile_stencil(s, 4).apply(bricked, {})
        np.testing.assert_allclose(bricked["r"].to_ijk(), dense["x"] / 2.0)

    def test_wide_stencil_radius_2(self, small_grid, rng):
        dense = rng.random(small_grid.shape_cells)
        f = BrickedArray.from_ijk(small_grid, dense)
        f.fill_ghost_periodic()
        out = BrickedArray.zeros(small_grid)
        i, j, k = indices()
        x, y = Grid("x"), Grid("y")
        s = Stencil("r2", [y(i, j, k).assign(x(i + 2, j, k) + x(i, j - 2, k))])
        compile_stencil(s, 4).apply({"x": f, "y": out}, {})
        oracle = np.roll(dense, -2, 0) + np.roll(dense, 2, 1)
        np.testing.assert_allclose(out.to_ijk(), oracle)

    def test_apply_updates_ghost_bricks_too(self, fields):
        """CA requires the kernel to compute over the ghost shell, as
        deep as a later sweep can still read it: every ghost cell within
        ``ghost_cells - radius`` of the interior."""
        bricked, _ = fields
        grid = bricked["x"].grid
        bricked["Ax"].data[grid.ghost_slots] = np.nan
        compile_stencil(APPLY_OP, 4).apply(bricked, {"alpha": -6.0, "beta": 1.0})
        valid = valid_cells(grid, grid.ghost_cells - 1)
        ghost = np.zeros(valid.shape, dtype=bool)
        ghost[grid.ghost_slots] = True
        assert (ghost & valid).sum() > 0
        assert np.isfinite(bricked["Ax"].data[ghost & valid]).all()


class TestValidation:
    def test_missing_constant_raises(self, fields):
        bricked, _ = fields
        k = compile_stencil(APPLY_OP, 4)
        with pytest.raises(KeyError, match="alpha"):
            k.apply(bricked, {"beta": 1.0})

    def test_missing_field_raises(self, fields):
        bricked, _ = fields
        k = compile_stencil(APPLY_OP, 4)
        with pytest.raises(KeyError, match="Ax"):
            k.apply({"x": bricked["x"]}, {"alpha": -6.0, "beta": 1.0})

    def test_mixed_grids_rejected(self, fields, rng):
        bricked, _ = fields
        other = BrickedArray.zeros(BrickGrid((4, 3, 2), 4))
        k = compile_stencil(APPLY_OP, 4)
        with pytest.raises(ValueError, match="share"):
            k.apply({"x": bricked["x"], "Ax": other}, {"alpha": -6.0, "beta": 1.0})

    def test_brick_dim_mismatch_rejected(self, fields):
        bricked, _ = fields
        k = compile_stencil(APPLY_OP, 8)
        with pytest.raises(ValueError, match="brick_dim"):
            k.apply(bricked, {"alpha": -6.0, "beta": 1.0})

    def test_radius_exceeding_brick_rejected(self):
        i, j, k = indices()
        x, y = Grid("x"), Grid("y")
        s = Stencil("too_wide", [y(i, j, k).assign(x(i + 3, j, k))])
        with pytest.raises(ValueError, match="radius"):
            CompiledKernel(s, 2)


class TestCaching:
    def test_compile_cache_hits(self):
        a = compile_stencil(APPLY_OP, 4)
        b = compile_stencil(APPLY_OP, 4)
        assert a is b

    def test_cache_distinguishes_brick_dim(self):
        assert compile_stencil(APPLY_OP, 4) is not compile_stencil(APPLY_OP, 8)

    def test_workspace_buffers_are_reused(self, fields):
        bricked, _ = fields
        k = compile_stencil(APPLY_OP, 4)
        ws: dict = {}
        k.apply(bricked, {"alpha": -6.0, "beta": 1.0}, workspace=ws)
        bufs = list(ws.values())
        k.apply(bricked, {"alpha": -6.0, "beta": 1.0}, workspace=ws)
        assert list(ws.values())[0] is bufs[0]
