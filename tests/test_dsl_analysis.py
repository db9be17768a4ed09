"""Stencil analysis: offsets, radius, FLOPs, traffic, AI, CSE."""

import pytest

from repro.dsl import (
    APPLY_OP,
    RESIDUAL,
    SMOOTH,
    SMOOTH_RESIDUAL,
    ConstRef,
    Grid,
    Stencil,
    analyze,
    arithmetic_intensity,
    bytes_per_point,
    flops_per_point,
    indices,
    offsets_by_grid,
    stencil_radius,
)
from repro.dsl.analysis import common_subexpressions


class TestOffsets:
    def test_apply_op_offsets(self):
        offs = offsets_by_grid(APPLY_OP)
        assert set(offs) == {"x"}
        assert offs["x"] == {
            (0, 0, 0),
            (1, 0, 0),
            (-1, 0, 0),
            (0, 1, 0),
            (0, -1, 0),
            (0, 0, 1),
            (0, 0, -1),
        }

    def test_pointwise_offsets(self):
        offs = offsets_by_grid(SMOOTH)
        assert all(o == {(0, 0, 0)} for o in offs.values())

    def test_radius(self):
        assert stencil_radius(APPLY_OP) == 1
        assert stencil_radius(SMOOTH) == 0
        assert stencil_radius(RESIDUAL) == 0

    def test_radius_of_wide_stencil(self):
        i, j, k = indices()
        x, y = Grid("x"), Grid("y")
        s = Stencil("wide", [y(i, j, k).assign(x(i + 3, j, k - 2))])
        assert stencil_radius(s) == 3


class TestFlops:
    def test_apply_op_flops_match_paper(self):
        # alpha*x + beta*(sum of 6): 2 multiplies + 6 adds = 8
        assert flops_per_point(APPLY_OP) == 8

    def test_smooth_flops(self):
        # x + gamma*Ax - gamma*b: 2 multiplies, 1 add, 1 subtract
        assert flops_per_point(SMOOTH) == 4

    def test_smooth_residual_flops(self):
        assert flops_per_point(SMOOTH_RESIDUAL) == 5

    def test_residual_flops(self):
        assert flops_per_point(RESIDUAL) == 1

    def test_const_const_folding_not_counted(self):
        i, j, k = indices()
        x, y = Grid("x"), Grid("y")
        expr = (ConstRef("a") * ConstRef("b")) * x(i, j, k)
        s = Stencil("folded", [y(i, j, k).assign(expr)])
        assert flops_per_point(s) == 1


class TestTraffic:
    def test_apply_op_bytes(self):
        assert bytes_per_point(APPLY_OP) == 16  # read x, write Ax

    def test_smooth_bytes(self):
        assert bytes_per_point(SMOOTH) == 32  # read x, Ax, b; write x

    def test_smooth_residual_bytes(self):
        assert bytes_per_point(SMOOTH_RESIDUAL) == 40

    def test_residual_bytes(self):
        assert bytes_per_point(RESIDUAL) == 24

    def test_bytes_follow_the_itemsize(self):
        an = analyze(SMOOTH_RESIDUAL)
        assert an.bytes_per_point == an.bytes_per_point_at(8) == 40
        assert an.bytes_per_point_at(4) == 20  # fp32 fields move half

    def test_ai_values(self):
        assert arithmetic_intensity(APPLY_OP) == pytest.approx(0.5)
        assert arithmetic_intensity(SMOOTH) == pytest.approx(0.125)


class TestCSE:
    def test_smooth_residual_shares_ax_and_b(self):
        keys = common_subexpressions(SMOOTH_RESIDUAL)
        grids = {k[1] for k in keys if k[0] == "grid"}
        assert {"Ax", "b"} <= grids

    def test_apply_op_has_no_repeats(self):
        assert common_subexpressions(APPLY_OP) == []

    def test_repeated_compound_term(self):
        i, j, k = indices()
        x, y = Grid("x"), Grid("y")
        t = x(i, j, k) * 2.0
        s = Stencil("rep", [y(i, j, k).assign(t + t)])
        keys = common_subexpressions(s)
        assert any(k[0] == "binop" for k in keys)

    def test_constants_never_hoisted(self):
        i, j, k = indices()
        x, y = Grid("x"), Grid("y")
        c = ConstRef("c")
        s = Stencil("cc", [y(i, j, k).assign(c * x(i, j, k) + c * x(i + 1, j, k))])
        keys = common_subexpressions(s)
        assert all(k[0] != "constref" for k in keys)


class TestAnalyze:
    def test_apply_op_summary(self):
        an = analyze(APPLY_OP)
        assert an.name == "applyOp"
        assert an.radius == 1
        assert an.input_grids == ("x",)
        assert an.output_grids == ("Ax",)
        assert an.halo_grids == ("x",)
        assert set(an.const_names) == {"alpha", "beta"}
        assert an.arithmetic_intensity == pytest.approx(0.5)

    def test_smooth_residual_summary(self):
        an = analyze(SMOOTH_RESIDUAL)
        assert an.halo_grids == ()  # pointwise: no halo gather needed
        assert set(an.input_grids) == {"x", "Ax", "b"}
        assert an.output_grids == ("x", "r")

    def test_offsets_are_frozen(self):
        an = analyze(APPLY_OP)
        assert isinstance(an.offsets["x"], frozenset)
