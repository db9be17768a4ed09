"""The kernel library's Table IV characteristics."""

import pytest

from repro.dsl import APPLY_OP, OPERATOR_INFO, theoretical_ai_table
from repro.dsl.ast import BinOp, ConstRef, GridRef
from repro.dsl.library import VCYCLE_OPERATIONS

#: The paper's Figure 1 program, ``output(i, j, k).assign(alpha *
#: input(i, j, k) + beta * input(i +- 1, j, k) + ...)``, as offset ->
#: coefficient.
FIGURE_1 = {
    (0, 0, 0): "alpha",
    (1, 0, 0): "beta",
    (-1, 0, 0): "beta",
    (0, 1, 0): "beta",
    (0, -1, 0): "beta",
    (0, 0, 1): "beta",
    (0, 0, -1): "beta",
}


def _coefficients(expr) -> dict[tuple[int, int, int], str]:
    """Expand a sum of ``ConstRef * (sum of grid reads)`` terms into
    offset -> coefficient name; anything else is not a Figure 1 form."""
    if isinstance(expr, BinOp) and expr.op == "+":
        lhs, rhs = _coefficients(expr.lhs), _coefficients(expr.rhs)
        assert not set(lhs) & set(rhs), "offset read twice"
        return {**lhs, **rhs}
    assert isinstance(expr, BinOp) and expr.op == "*", expr
    assert isinstance(expr.lhs, ConstRef), expr
    reads = [expr.rhs]
    offsets = []
    while reads:
        node = reads.pop()
        if isinstance(node, BinOp) and node.op == "+":
            reads += [node.lhs, node.rhs]
        else:
            assert isinstance(node, GridRef) and node.grid == "x", node
            offsets.append(node.offsets)
    assert len(set(offsets)) == len(offsets), "offset read twice"
    return {off: expr.lhs.name for off in offsets}


class TestFigure1:
    def test_apply_op_is_the_figure_1_stencil(self):
        (statement,) = APPLY_OP.assignments
        assert statement.target.grid == "Ax"
        assert statement.target.offsets == (0, 0, 0)
        assert _coefficients(statement.expr) == FIGURE_1


class TestOperatorInfo:
    def test_all_five_operations_present(self):
        assert set(VCYCLE_OPERATIONS) <= set(OPERATOR_INFO)

    def test_apply_op_matches_paper_exactly(self):
        info = OPERATOR_INFO["applyOp"]
        assert info.flops_per_point == 8
        assert info.bytes_per_point == 16
        assert info.arithmetic_intensity == pytest.approx(0.50)

    def test_smooth_matches_paper_exactly(self):
        info = OPERATOR_INFO["smooth"]
        assert info.arithmetic_intensity == pytest.approx(0.125)

    def test_restriction_traffic(self):
        info = OPERATOR_INFO["restriction"]
        # 8 fine reads + 1 coarse write per coarse point
        assert info.bytes_per_point == 72
        assert info.arithmetic_intensity == pytest.approx(0.111, abs=1e-3)

    def test_interpolation_traffic(self):
        info = OPERATOR_INFO["interpolation+increment"]
        # 1 coarse read + 8 fine reads + 8 fine writes per coarse point
        assert info.bytes_per_point == 136
        assert info.arithmetic_intensity == pytest.approx(0.059, abs=1e-3)

    def test_halo_flags(self):
        assert OPERATOR_INFO["applyOp"].has_halo
        assert not OPERATOR_INFO["smooth"].has_halo
        assert not OPERATOR_INFO["restriction"].has_halo

    def test_table_iv_within_counting_convention_tolerance(self):
        """Every AI is within 0.03 FLOP/byte of the paper's Table IV.

        smooth+residual differs by exactly one flop of counting
        convention (5/40 = 0.125 vs the paper's 0.15); everything else
        agrees to rounding.
        """
        for op, (ours, paper) in theoretical_ai_table().items():
            assert abs(ours - paper) <= 0.03, op

    def test_exact_agreement_except_smooth_residual(self):
        for op, (ours, paper) in theoretical_ai_table().items():
            if op == "smooth+residual":
                continue
            assert abs(ours - paper) <= 0.005, op

    def test_all_memory_bound_ai_below_one(self):
        for info in OPERATOR_INFO.values():
            assert info.arithmetic_intensity < 1.0
