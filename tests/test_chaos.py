"""The chaos harness: seeded crash matrix and recovery SLOs.

Acceptance contract: the crash matrix is seed-deterministic, every cell
recovers to the reference tolerance (bit-identically, since recovery
replays from a coordinated checkpoint or a deterministic restart), and
the storm cell, which expects to converge and cannot, fails the gate —
the inverted self-test.  The 8-rank matrix's events are pinned in
``tests/data/fault_records.json``.
"""

import dataclasses

import pytest

from repro.faults.scenarios import CRASH_COLUMNS, crash_matrix, render, run

# the matrix is exercised on 2 ranks with a single cell per axis so the
# suite stays fast; the CI chaos-smoke job runs the full 8-rank matrix
SMALL = dict(rank_dims=(2, 1, 1), cycles=(2,), counts=(1,), intervals=(2,))


@pytest.fixture(scope="module")
def rows():
    return run(crash_matrix(2024, **SMALL))


@pytest.fixture(scope="module")
def storm_rows():
    return run(crash_matrix(2024, storm=True, **SMALL))


class TestScenarioMatrix:
    def test_victims_are_seed_deterministic(self):
        a = crash_matrix(7)
        b = crash_matrix(7)
        assert a == b
        c = crash_matrix(8)
        assert [s.plan for s in a] != [s.plan for s in c]

    def test_matrix_covers_every_cell(self):
        scs = crash_matrix(7, (2, 2, 2), cycles=(1, 3), counts=(1, 2), intervals=(1, 2))
        assert len(scs) == 8
        assert len({s.name for s in scs}) == 8

    def test_crash_count_leaves_a_survivor(self):
        scs = crash_matrix(7, (2, 1, 1), cycles=(1,), counts=(5,), intervals=(1,))
        assert all(len(s.plan.specs) == 1 for s in scs)

    def test_clamped_counts_keep_names_unique(self):
        """On two ranks count 2 clamps to 1: one cell, not two of one name."""
        names = [s.name for s in crash_matrix(2024, (2, 1, 1))]
        assert len(names) == len(set(names))

    def test_single_rank_matrix_rejected(self):
        with pytest.raises(ValueError, match="at least 2 ranks"):
            crash_matrix(7, (1, 1, 1))

    def test_storm_scenario_is_persistent(self):
        sc = crash_matrix(7, storm=True)[-1]
        assert sc.name == "crash-storm"
        assert sc.expect_status == "converged"  # which it cannot
        (spec,) = sc.plan.specs
        assert spec.max_hits is None
        assert spec.rank == 7


class TestSweepOutcomes:
    def test_every_cell_recovers_to_reference_tolerance(self, rows):
        for r in rows:
            assert r.status == "converged", r.scenario
            assert r.tolerance_met, r.scenario
            assert r.bit_identical, r.scenario
            assert r.crashes >= 1
            assert r.recovered_ranks, r.scenario
            assert r.mttr_ms > 0

    def test_gate_passes_on_clean_matrix(self, rows):
        assert all(r.passed for r in rows)

    def test_gate_fails_on_unrecovered_cell(self, rows):
        broken = [dataclasses.replace(rows[0], bit_identical=False)]
        broken += rows[1:]
        assert not all(r.passed for r in broken)

    def test_storm_run_fails_the_gate(self, storm_rows):
        """The inverted self-test: a sweep containing an unrecoverable
        crash must report failure even when the matrix cells recover."""
        storm = next(r for r in storm_rows if r.scenario == "crash-storm")
        assert storm.status == "failed_faults"
        assert storm.rollbacks > 0
        assert not all(r.passed for r in storm_rows)

    def test_gate_reads_the_storm_row(self, storm_rows):
        """The storm run fails on its row's verdict, not by fiat: had the
        storm cell converged to the reference, the gate would pass."""
        healed = [
            dataclasses.replace(
                r, status="converged", tolerance_met=True, bit_identical=True
            )
            if r.scenario == "crash-storm" else r
            for r in storm_rows
        ]
        assert all(r.passed for r in healed)

    def test_render_mentions_every_cell(self, rows):
        text = render(rows, "Chaos sweep", CRASH_COLUMNS)
        for r in rows:
            assert r.scenario in text
        assert "mttr" in text
