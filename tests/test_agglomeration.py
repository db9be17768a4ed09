"""Coarse-level agglomeration (Section IX remedy) in the machine model."""

import pytest

from repro.harness.agglomeration import (
    AgglomeratedTimedSolve,
    strong_scaling_with_agglomeration,
    render_agglomeration,
)
from repro.harness.vcycle_sim import WorkloadConfig
from repro.machines import PERLMUTTER


@pytest.fixture(scope="module")
def paper_workload_solver():
    return AgglomeratedTimedSolve(PERLMUTTER, WorkloadConfig())


class TestFactors:
    def test_fine_levels_never_agglomerate(self, paper_workload_solver):
        # 512^3 and 256^3 per rank are far above any sensible threshold
        assert paper_workload_solver.agglomeration_factor(0) == 1
        assert paper_workload_solver.agglomeration_factor(1) == 1

    def test_factor_bounded_by_rank_count(self, paper_workload_solver):
        total = paper_workload_solver.topology.size
        for lev in range(6):
            assert paper_workload_solver.agglomeration_factor(lev) <= total

    def test_active_ranks(self, paper_workload_solver):
        for lev in range(6):
            f = paper_workload_solver.agglomeration_factor(lev)
            assert paper_workload_solver.active_ranks(lev) == max(1, 8 // f)

    def test_greedy_choice_is_at_least_as_good_as_baseline(self):
        """Factor 1 is a candidate, so every level visit is priced at or
        below the baseline visit cost."""
        aggl = AgglomeratedTimedSolve(PERLMUTTER, WorkloadConfig())
        for lev in range(6):
            f = aggl.agglomeration_factor(lev)
            assert aggl._visit_cost(lev, f) <= aggl._visit_cost(lev, 1) + 1e-12

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            AgglomeratedTimedSolve(PERLMUTTER, WorkloadConfig(), threshold_points=0)


class TestCosts:
    def test_gather_free_when_not_agglomerated(self, paper_workload_solver):
        assert paper_workload_solver.gather_scatter_seconds(0) == 0.0

    def test_single_rank_level_has_no_network_exchange(self):
        """When one rank owns a level, the exchange is a device-memory
        wrap — cheaper than any NIC round trip."""
        aggl = AgglomeratedTimedSolve(PERLMUTTER, WorkloadConfig())
        t_wrap = aggl._exchange_at_factor(5, 8, nfields=1)
        t_net = aggl._exchange_at_factor(5, 1, nfields=1)
        assert t_wrap < t_net

    def test_level_times_include_agglomeration_bucket(self):
        aggl = AgglomeratedTimedSolve(PERLMUTTER, WorkloadConfig())
        times = aggl.vcycle_level_times()
        agglomerated = [
            lev for lev in range(6) if aggl.agglomeration_factor(lev) > 1
        ]
        for lev in agglomerated:
            assert times[lev].get("agglomeration", 0.0) > 0.0


class TestStrongScalingComparison:
    @pytest.fixture(scope="class")
    def comparison(self):
        return strong_scaling_with_agglomeration("Perlmutter")

    def test_never_meaningfully_slower(self, comparison):
        for base, aggl in zip(
            comparison.baseline_seconds, comparison.agglomerated_seconds
        ):
            assert aggl <= base * 1.01

    def test_helps_at_the_latency_bound_end(self, comparison):
        """Section IX's expectation: the remedy matters where the
        V-cycle is latency bound."""
        assert (
            comparison.agglomerated_seconds[-1]
            < comparison.baseline_seconds[-1] * 0.97
        )
        assert (
            comparison.agglomerated_efficiency[-1]
            > comparison.baseline_efficiency[-1]
        )

    def test_render(self, comparison):
        text = render_agglomeration(comparison)
        assert "agglomeration" in text and "eff" in text

    @pytest.mark.parametrize("machine", ["Frontier", "Sunspot"])
    def test_never_meaningfully_slower_elsewhere(self, machine):
        """Where little latency is left to reclaim, the greedy choice
        declines to gather rather than slow the V-cycle down."""
        result = strong_scaling_with_agglomeration(machine)
        for base, aggl in zip(
            result.baseline_seconds, result.agglomerated_seconds
        ):
            assert aggl <= base * 1.01
