"""Stencil fusion: one fused kernel must be bit-identical to its stages."""

import numpy as np
import pytest

from repro.bricks import BrickedArray
from repro.dsl.analysis import analyze
from repro.dsl.ast import Grid, Stencil, indices
from repro.dsl.codegen import compile_stencil
from repro.dsl.fusion import compose_stencils
from repro.dsl.library import (
    APPLY_OP,
    FUSED_SMOOTH,
    FUSED_SMOOTH_RESIDUAL,
    FUSED_STENCILS,
    RESIDUAL,
    SMOOTH,
    SMOOTH_RESIDUAL,
    fused_ai_table,
)
from tests.conftest import valid_cells

CONSTS = {"alpha": -6.0, "beta": 1.0, "gamma": 1.0 / 12.0}


def make_fields(grid, rng):
    fields = {}
    for name in ("x", "b", "Ax", "r"):
        f = BrickedArray.from_ijk(grid, rng.random(grid.shape_cells))
        f.fill_ghost_periodic()
        fields[name] = f
    return fields


class TestFusedBitIdentity:
    @pytest.mark.parametrize("tail", [SMOOTH, SMOOTH_RESIDUAL, RESIDUAL])
    def test_fused_matches_staged(self, small_grid, rng, tail):
        """Running the fused kernel once must leave *every* field —
        intermediates included — byte-equal to running the stages, on
        every cell still valid after one radius-1 sweep."""
        B = small_grid.brick_dim
        staged = make_fields(small_grid, rng)
        fused = {name: f.copy() for name, f in staged.items()}

        compile_stencil(APPLY_OP, B).apply(staged, CONSTS)
        compile_stencil(tail, B).apply(staged, CONSTS)

        fused_stencil = FUSED_STENCILS[tail.name]
        compile_stencil(fused_stencil, B).apply(fused, CONSTS)

        valid = valid_cells(small_grid, small_grid.ghost_cells - 1)
        for name in staged:
            assert np.array_equal(fused[name].data[valid], staged[name].data[valid]), name


class TestComposeStencils:
    def test_intermediate_becomes_internal(self):
        """The fused pipeline reads ``x`` with a halo but no longer
        *inputs* ``Ax`` — the substituted subtree carries the data."""
        an = analyze(FUSED_SMOOTH)
        assert "Ax" not in an.input_grids
        assert "Ax" in an.output_grids  # still stored
        assert "x" in an.halo_grids

    def test_cse_dedups_substituted_subtree(self):
        """``smooth+residual`` reads ``Ax`` at two sites; the fused
        kernel must still pay the applyOp flops once."""
        op = analyze(APPLY_OP).effective_flops_per_point
        tail = analyze(SMOOTH_RESIDUAL).effective_flops_per_point
        fused = analyze(FUSED_SMOOTH_RESIDUAL).effective_flops_per_point
        assert fused == op + tail

    def test_offset_read_of_intermediate_rejected(self):
        i, j, k = indices()
        x, Ax = Grid("x"), Grid("Ax")
        consumer = Stencil("shift", [x(i, j, k).assign(Ax(i + 1, j, k))])
        with pytest.raises(ValueError, match="halo"):
            compose_stencils("bad", (APPLY_OP, consumer))

    def test_needs_two_stages(self):
        with pytest.raises(ValueError):
            compose_stencils("solo", (APPLY_OP,))

    def test_fused_ai_improves_on_staged_sum(self):
        """Fusion's point: same flops over less traffic. Every fused
        pipeline must report a strictly positive effective AI and a
        byte count below the staged stages' combined streams."""
        table = fused_ai_table()
        assert set(table) == {s.name for s in FUSED_STENCILS.values()}
        for name, (flops, bytes_pt, ai) in table.items():
            assert flops > 0 and bytes_pt > 0
            assert ai == pytest.approx(flops / bytes_pt)
