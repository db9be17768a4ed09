"""Performance-portability metric (Pennycook Phi)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.experiments import (
    table3_portability_roofline,
    table5_portability_ai,
)
from repro.perf import (
    efficiency_table_phi,
    harmonic_mean,
    performance_portability,
)


class TestHarmonicMean:
    def test_empty_is_zero(self):
        assert harmonic_mean([]) == 0.0

    def test_zero_value_is_zero(self):
        assert harmonic_mean([0.5, 0.0, 0.9]) == 0.0

    def test_identical_values(self):
        assert harmonic_mean([0.7, 0.7, 0.7]) == pytest.approx(0.7)

    def test_known_value(self):
        assert harmonic_mean([1.0, 0.5]) == pytest.approx(2 / 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            harmonic_mean([0.5, -0.1])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8))
    def test_bounded_by_min_and_max(self, vals):
        hm = harmonic_mean(vals)
        assert min(vals) - 1e-12 <= hm <= max(vals) + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8))
    def test_below_arithmetic_mean(self, vals):
        assert harmonic_mean(vals) <= sum(vals) / len(vals) + 1e-12


class TestPhi:
    def test_unsupported_platform_zeroes_phi(self):
        assert performance_portability({"a": 0.9, "b": None}) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            performance_portability({"a": 1.2})

    def test_matches_pennycook_definition(self):
        effs = {"a": 0.9, "b": 0.6, "c": 0.8}
        expected = 3 / (1 / 0.9 + 1 / 0.6 + 1 / 0.8)
        assert performance_portability(effs) == pytest.approx(expected)

    def test_table_aggregation(self):
        table = {"op1": {"a": 0.8, "b": 0.8}, "op2": {"a": 0.4, "b": 0.4}}
        per_op, overall = efficiency_table_phi(table)
        assert per_op["op1"] == pytest.approx(0.8)
        assert per_op["op2"] == pytest.approx(0.4)
        assert overall == pytest.approx(harmonic_mean([0.8, 0.4]))


class TestPaperTables:
    def test_table3_overall_meets_claim(self):
        """Paper: Phi of 73% across platforms and programming models."""
        result = table3_portability_roofline()
        assert result.overall_phi == pytest.approx(0.73, abs=0.01)

    def test_table3_per_op_values(self):
        """Spot-check the per-op harmonic means printed in Table III."""
        per_op = table3_portability_roofline().per_op_phi
        assert per_op["applyOp"] == pytest.approx(0.76, abs=0.01)
        assert per_op["smooth"] == pytest.approx(0.80, abs=0.01)
        assert per_op["smooth+residual"] == pytest.approx(0.83, abs=0.01)
        assert per_op["restriction"] == pytest.approx(0.76, abs=0.01)
        assert per_op["interpolation+increment"] == pytest.approx(0.55, abs=0.01)

    def test_table3_phi_between_the_platform_extremes(self):
        result = table3_portability_roofline()
        for op, effs in result.efficiencies.items():
            assert min(effs.values()) <= result.per_op_phi[op], op
            assert result.per_op_phi[op] <= max(effs.values()), op

    def test_table5_overall_meets_claim(self):
        """Paper: ~92% of the infinite-cache bound."""
        result = table5_portability_ai()
        assert result.overall_phi == pytest.approx(0.92, abs=0.02)

    def test_table5_per_op_values(self):
        per_op = table5_portability_ai().per_op_phi
        assert per_op["applyOp"] == pytest.approx(0.90, abs=0.01)
        assert per_op["smooth"] == pytest.approx(0.97, abs=0.01)
        assert per_op["restriction"] == pytest.approx(0.94, abs=0.01)
        assert per_op["smooth+residual"] == pytest.approx(0.88, abs=0.01)
        assert per_op["interpolation+increment"] == pytest.approx(0.90, abs=0.01)

    def test_interp_is_the_weakest_op(self):
        """The paper singles out interpolation+increment on MI250X."""
        result = table3_portability_roofline()
        weakest = min(result.per_op_phi, key=result.per_op_phi.get)
        assert weakest == "interpolation+increment"
        assert result.efficiencies["interpolation+increment"]["Frontier"] == 0.42
