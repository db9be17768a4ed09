"""The chaos harness: seeded crash matrix and recovery SLOs.

Acceptance contract (ISSUE 6): the crash matrix is seed-deterministic,
every cell recovers to the reference tolerance (bit-identically, since
recovery replays from a coordinated checkpoint or a deterministic
restart), and the storm cell degrades and fails the gate — the
inverted self-test.
"""

import pytest

from repro.faults.chaos import (
    chaos_passed,
    chaos_scenarios,
    chaos_sweep,
    render_chaos_sweep,
    storm_scenario,
)

# the matrix is exercised on 2 ranks with a single cell per axis so the
# suite stays fast; the CI chaos-smoke job runs the full 8-rank matrix
SMALL = dict(
    rank_dims=(2, 1, 1),
    crash_cycles=(2,),
    crash_counts=(1,),
    checkpoint_intervals=(2,),
)


@pytest.fixture(scope="module")
def rows():
    return chaos_sweep(seed=2024, **SMALL)


class TestScenarioMatrix:
    def test_victims_are_seed_deterministic(self):
        a = chaos_scenarios(7, num_ranks=8)
        b = chaos_scenarios(7, num_ranks=8)
        assert a == b
        c = chaos_scenarios(8, num_ranks=8)
        assert [s.plan for s in a] != [s.plan for s in c]

    def test_matrix_covers_every_cell(self):
        scs = chaos_scenarios(
            7, num_ranks=8, crash_cycles=(1, 3), crash_counts=(1, 2),
            checkpoint_intervals=(1, 2),
        )
        assert len(scs) == 8
        assert len({s.name for s in scs}) == 8

    def test_crash_count_leaves_a_survivor(self):
        scs = chaos_scenarios(
            7, num_ranks=2, crash_cycles=(1,), crash_counts=(5,),
            checkpoint_intervals=(1,),
        )
        assert all(len(s.plan.specs) == 1 for s in scs)

    def test_single_rank_matrix_rejected(self):
        with pytest.raises(ValueError, match="distributed"):
            chaos_scenarios(7, num_ranks=1)

    def test_storm_scenario_is_persistent(self):
        sc = storm_scenario(rank=3)
        assert sc.expect_status == "failed_faults"
        (spec,) = sc.plan.specs
        assert spec.max_hits is None
        assert spec.rank == 3


class TestSweepOutcomes:
    def test_every_cell_recovers_to_reference_tolerance(self, rows):
        for r in rows:
            assert r.status == "converged", r.scenario
            assert r.tolerance_met, r.scenario
            assert r.bit_identical, r.scenario
            assert r.crashes >= 1
            assert r.recovered_ranks, r.scenario
            assert r.mttr_ms > 0

    def test_sweep_is_deterministic(self, rows):
        import dataclasses

        # everything but the wall-clock MTTR is a pure function of the seed
        def stripped(rs):
            return [dataclasses.replace(r, mttr_ms=0.0) for r in rs]

        assert stripped(chaos_sweep(seed=2024, **SMALL)) == stripped(rows)

    def test_gate_passes_on_clean_matrix(self, rows):
        assert chaos_passed(rows)

    def test_gate_fails_on_unrecovered_cell(self, rows):
        import dataclasses

        broken = [dataclasses.replace(rows[0], bit_identical=False)]
        broken += rows[1:]
        assert not chaos_passed(broken)

    def test_storm_run_fails_the_gate(self):
        """The inverted self-test: a sweep containing an unrecoverable
        crash must report failure even when the matrix cells recover."""
        rows = chaos_sweep(seed=2024, storm=True, **SMALL)
        storm = next(r for r in rows if r.scenario == "crash-storm")
        assert storm.status == "failed_faults"
        assert storm.rollbacks > 0
        assert not chaos_passed(rows, storm=True)

    def test_render_mentions_every_cell(self, rows):
        text = render_chaos_sweep(rows)
        for r in rows:
            assert r.scenario in text
        assert "mttr" in text
