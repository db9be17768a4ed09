"""V-cycle driver: schedule, CA equivalence, convergence behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bricks import BatchedGrid, BrickGrid
from repro.dsl import native
from repro.gmg import GMGSolver, SolverConfig
from repro.gmg.level import Level
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
            lv.b.max_abs_interior() for lv in s.depths[0].level.blocks()
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
        from repro.gmg.vcycle import Depth, VCycle

        s = solve()
        with pytest.raises(ValueError, match="2 owning ranks for 1 blocks"):
            Depth(s.depths[0].level, None, (0, 1))
        with pytest.raises(ValueError, match="positive"):
            VCycle(s.depths, max_smooths=0)
        with pytest.raises(ValueError, match="at least one"):
            VCycle([])

    def test_mismatched_rank_hierarchies_rejected(self):
        """Restriction pairs each depth's blocks with the next depth's:
        levels of different block counts are no hierarchy."""
        from repro.gmg.vcycle import VCycle

        a, b = solve(), solve(rank_dims=(2, 1, 1))
        with pytest.raises(ValueError, match="same number of blocks: \\[1, 2\\]"):
            VCycle([a.depths[0], b.depths[1]])


@settings(max_examples=40, deadline=None)
@given(
    shape=st.tuples(*[st.integers(1, 4)] * 3),
    brick_dim=st.sampled_from([1, 2, 4]),
    ghost_bricks=st.integers(0, 2),
    blocks=st.integers(1, 3),
)
def test_surface_major_interior_is_each_blocks_slot_tail(
    shape, brick_dim, ghost_bricks, blocks
):
    """What the residual check's view stands on: under surface-major
    storage every ghost slot precedes every interior slot, so each
    block's interior is the tail ``[S - num_interior, S)`` — and
    ``Level.interior`` is a view of exactly those cells."""
    grid = BrickGrid(shape, brick_dim, ghost_bricks=ghost_bricks)
    S, n = grid.num_slots, grid.num_interior
    np.testing.assert_array_equal(np.sort(grid.interior_slots), np.arange(S - n, S))
    tails = (np.arange(S - n, S)[None, :] + S * np.arange(blocks)[:, None]).ravel()
    np.testing.assert_array_equal(
        np.sort(BatchedGrid(grid, blocks).interior_slots), tails
    )
    cells = tuple(c * brick_dim for c in shape)
    level = Level(0, cells, brick_dim, 1.0, ghost_bricks=ghost_bricks, blocks=blocks)
    level.r.data[...] = np.arange(level.r.data.size).reshape(level.r.data.shape)
    view = level.interior(level.r)
    assert np.shares_memory(view, level.r.data)
    gathered = level.r.data[level.grid.interior_slots]
    np.testing.assert_array_equal(np.sort(view, axis=None), np.sort(gathered, axis=None))


class TestResidualCheck:
    """Algorithm 1's check: one fused kernel call, then a max over each
    block's interior view — no gather, and only interior cells read."""

    @staticmethod
    def check_calls(solver) -> int:
        before = native.call_counts()["calls"]
        solver.vcycle.max_norm_residual()
        return native.call_counts()["calls"] - before

    @pytest.mark.parametrize("dims", [(1, 1, 1), (2, 2, 2)], ids=["1rank", "8ranks"])
    def test_one_native_call_per_check(self, dims):
        if native.resolve_backend().reason is not None:
            pytest.skip(native.resolve_backend().reason)
        s = solve(rank_dims=dims)
        self.check_calls(s)  # binds the kernel
        assert self.check_calls(s) == 1

    @pytest.mark.parametrize("dims", [(1, 1, 1), (2, 2, 2)], ids=["1rank", "8ranks"])
    def test_matches_the_gathered_reference(self, dims):
        s = solve(rank_dims=dims)
        s.solve()
        got = s.vcycle.max_norm_residual()
        level = s.vcycle.depths[0].level
        assert got == max(lv.r.max_abs_interior() for lv in level.blocks())

    @pytest.mark.parametrize("dims", [(1, 1, 1), (2, 2, 2)], ids=["ghostless", "8ranks"])
    def test_nan_in_one_interior_cell_comes_out(self, dims):
        s = solve(rank_dims=dims)
        block = s.depths[0].level.blocks()[-1]
        block.b.data[block.grid.interior_slots[3], 1, 2, 0] = np.nan
        history = s.solve().residual_history
        assert np.isnan(history[0])

    def test_nan_in_a_ghost_slot_does_not_come_out(self):
        s = solve(rank_dims=(2, 2, 2))
        clean = s.vcycle.max_norm_residual()
        level = s.depths[0].level
        ghosts = level.grid.ghost_slots
        level.b.data[ghosts] = np.nan
        level.r.data[ghosts] = np.nan
        assert s.vcycle.max_norm_residual() == clean
        assert np.isnan(level.r.data[ghosts]).any()  # the poison was there

    def test_all_zero_residual_reads_positive_zero(self):
        """``-0.0`` everywhere in ``r`` must read ``+0.0``: ``max(x.max(),
        -x.min())`` would return ``-0.0`` here."""
        s = solve(rank_dims=(2, 1, 1))
        level = s.depths[0].level
        level.b.fill(-0.0)
        norm = s.vcycle.max_norm_residual()
        assert np.signbit(level.interior(level.r)).all()
        assert norm == 0.0 and not np.signbit(norm)

    def test_nan_reaches_only_its_copy(self):
        """A cohort's per-copy norms: a NaN in copy 1's interior reads
        NaN for copy 1 alone, and the others keep their bytes."""
        from repro.service.cohort import CohortSolver

        config = SolverConfig(global_cells=16, num_levels=2, brick_dim=4,
                              rank_dims=(2, 1, 1))
        cohort = CohortSolver(config, capacity=3)
        level = cohort.vcycle.depths[0].level
        level.b.data[...] = np.random.default_rng(5).random(level.b.data.shape)
        clean = cohort.vcycle.residual_norms()
        copy1_rank0 = level.blocks()[2]
        copy1_rank0.b.data[copy1_rank0.grid.interior_slots[-1], 0, 0, 3] = np.nan
        norms = cohort.vcycle.residual_norms()
        assert np.isnan(norms[1])
        assert [norms[0], norms[2]] == [clean[0], clean[2]]
