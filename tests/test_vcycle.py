"""V-cycle driver: schedule, CA equivalence, convergence behaviour."""

import numpy as np
import pytest

from repro.gmg import GMGSolver, SolverConfig
from tests.conftest import exchange_every_sweep


def solve(global_cells=16, num_levels=2, brick_dim=4, **kw):
    cfg = SolverConfig(
        global_cells=global_cells,
        num_levels=num_levels,
        brick_dim=brick_dim,
        max_smooths=kw.pop("max_smooths", 6),
        bottom_smooths=kw.pop("bottom_smooths", 20),
        **kw,
    )
    return GMGSolver(cfg)


class TestConvergenceBehaviour:
    def test_residual_decreases_monotonically(self):
        s = solve()
        history = s.vcycle.solve(tol=1e-10, max_vcycles=30)
        assert all(b < a for a, b in zip(history, history[1:]))

    def test_reaches_paper_tolerance(self):
        s = solve()
        history = s.vcycle.solve(tol=1e-10, max_vcycles=50)
        assert history[-1] <= 1e-10

    def test_three_level_hierarchy_converges_faster_per_cycle(self):
        """More levels => cheaper coarse solve and at least as good a
        convergence factor on this problem."""
        two = solve(global_cells=32, num_levels=2).solve()
        three = solve(global_cells=32, num_levels=3).solve()
        assert three.converged and two.converged

    def test_max_vcycles_cap(self):
        s = solve()
        history = s.vcycle.solve(tol=0.0, max_vcycles=3)
        assert len(history) == 4  # initial + 3 cycles

    def test_initial_residual_is_rhs_norm(self):
        s = solve()
        # x = 0 -> r = b, so the first residual is max|b|
        expected = max(
            lv.b.max_abs_interior() for lv in s.levels[0].blocks()
        )
        assert s.vcycle.max_norm_residual() == pytest.approx(expected)


class TestCommunicationAvoiding:
    """The solver runs only the communication-avoiding schedule; the
    exchange-every-sweep one is forced from the test side.  Two ranks,
    because one periodic rank has no ghost shell to budget."""

    RANKS = dict(rank_dims=(2, 1, 1))

    def test_ca_and_non_ca_give_identical_results(self):
        """Redundant ghost-zone computation must not change interior
        values: CA on/off solves agree bit-for-bit."""
        a = solve(**self.RANKS)
        ra = a.solve()
        with exchange_every_sweep():
            b = solve(**self.RANKS)
            rb = b.solve()
        assert ra.residual_history == rb.residual_history
        np.testing.assert_array_equal(a.solution(), b.solution())

    def test_ca_reduces_exchange_count(self):
        a = solve(**self.RANKS)
        a.solve()
        with exchange_every_sweep():
            b = solve(**self.RANKS)
            b.solve()
        ex_a = sum(a.recorder.exchange_counts().values())
        ex_b = sum(b.recorder.exchange_counts().values())
        assert ex_a < ex_b

    def test_exchanges_per_visit_formula(self):
        # brick 4 => ghost depth 4 => ceil(6/4)=2
        s = solve(max_smooths=6, **self.RANKS)
        assert s.vcycle.exchanges_per_visit(0) == 2
        s2 = solve(max_smooths=4, **self.RANKS)
        assert s2.vcycle.exchanges_per_visit(0) == 1
        with exchange_every_sweep():
            s3 = solve(max_smooths=6, **self.RANKS)
            assert s3.vcycle.exchanges_per_visit(0) == 6

    def test_one_periodic_rank_exchanges_nothing(self):
        """No ghost shell: no exchanger, no window limit, no exchange,
        and the same bits as the shelled two-rank solve."""
        s = solve(max_smooths=6)
        assert s.exchangers == [None, None] and s.halo_exchangers() == []
        assert [s.vcycle.exchanges_per_visit(lev) for lev in (0, 1)] == [0, 0]
        result = s.solve()
        assert result.recorder.exchange_counts() == {}
        assert result.recorder.messages == [] and s.comm.ledger == {}
        two = solve(max_smooths=6, **self.RANKS)
        assert two.solve().residual_history == result.residual_history
        assert s.solution().tobytes() == two.solution().tobytes()


class TestScheduleValidation:
    def test_vcycle_constructor_validation(self):
        from repro.gmg.vcycle import VCycle

        s = solve()
        with pytest.raises(ValueError, match="exchanger"):
            VCycle(s.levels, [], max_smooths=2, bottom_smooths=2)
        with pytest.raises(ValueError, match="positive"):
            VCycle(s.levels, s.exchangers, max_smooths=0)
        with pytest.raises(ValueError, match="at least one"):
            VCycle([], [])

    def test_mismatched_rank_hierarchies_rejected(self):
        """Every depth stacks the same ranks: levels of different block
        counts are no hierarchy."""
        from repro.gmg.vcycle import VCycle

        a, b = solve(), solve(rank_dims=(2, 1, 1))
        with pytest.raises(ValueError, match="same number of blocks: \\[1, 2\\]"):
            VCycle([a.levels[0], b.levels[1]], a.exchangers)
