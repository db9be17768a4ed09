"""Rank-crash fault tolerance: buddy checkpointing, ULFM-style repair.

Acceptance contract (ISSUE 6): without crash specs the resilient path
stays bit-identical to the plain path (buddy checkpoints included); a
seeded single-rank crash is detected, the communicator repaired, the
dead rank's bricks adopted from its buddy replica, and the solve
converges to the *same* residual tolerance as the fault-free reference
with ``recovered_ranks`` naming the victim; a crash that outlives its
buddy replica falls back to a deterministic global restart; an
unrecoverable crash storm degrades to ``failed_faults`` without
hanging; and plan validation rejects impossible crash specs up front.
"""

import numpy as np
import pytest

from repro.comm import ResilientChannel
from repro.comm.simmpi import RankDeadError, SimComm
from repro.comm.topology import CartTopology
from repro.faults import (
    FaultPlan,
    FaultSpec,
    ResilienceConfig,
    STATUS_FAILED_FAULTS,
)
from repro.gmg import GMGSolver, SolverConfig
from repro.obs.metrics import solve_metrics


def small_config(**overrides) -> SolverConfig:
    base = dict(
        global_cells=16,
        num_levels=2,
        brick_dim=4,
        max_smooths=6,
        bottom_smooths=20,
        rank_dims=(2, 1, 1),
    )
    base.update(overrides)
    return SolverConfig(**base)


def crash_plan(*specs) -> FaultPlan:
    return FaultPlan(specs=tuple(specs))


@pytest.fixture(scope="module")
def reference():
    """Fault-free solve of the shared small config."""
    solver = GMGSolver(small_config())
    result = solver.solve()
    return result, solver.solution()


class TestPlanValidation:
    def test_rank_crash_requires_rank(self):
        with pytest.raises(ValueError, match="rank"):
            FaultSpec("rank_crash")

    def test_rejects_negative_vcycle(self):
        with pytest.raises(ValueError, match="vcycle"):
            FaultSpec("rank_crash", rank=0, vcycle=-1)

    def test_rejects_negative_rank(self):
        with pytest.raises(ValueError, match="rank"):
            FaultSpec("drop", rank=-2)

    def test_rejects_src_on_rank_crash(self):
        with pytest.raises(ValueError, match="src"):
            FaultSpec("rank_crash", rank=1, src=0)

    def test_rejects_direction_on_rank_crash(self):
        with pytest.raises(ValueError, match="direction"):
            FaultSpec("rank_crash", rank=1, direction=(1, 0, 0))

    def test_solver_rejects_out_of_range_victim(self):
        # the small config has 2 ranks: rank 5 cannot crash
        plan = crash_plan(FaultSpec("rank_crash", rank=5, vcycle=1))
        with pytest.raises(ValueError, match="rank=5 out of range"):
            GMGSolver(small_config(), fault_plan=plan)

    def test_solver_rejects_out_of_range_level(self):
        plan = crash_plan(FaultSpec("rank_crash", rank=0, vcycle=1, level=7))
        with pytest.raises(ValueError, match="level=7 out of range"):
            GMGSolver(small_config(), fault_plan=plan)

    def test_solver_rejects_crash_on_single_rank_solve(self):
        plan = crash_plan(FaultSpec("rank_crash", rank=0, vcycle=1))
        with pytest.raises(ValueError, match=">= 2 ranks"):
            GMGSolver(small_config(rank_dims=(1, 1, 1)), fault_plan=plan)

    def test_message_spec_src_validated_too(self):
        plan = crash_plan(FaultSpec("drop", vcycle=1, level=0, src=9))
        with pytest.raises(ValueError, match="src"):
            GMGSolver(small_config(), fault_plan=plan)


class TestBuddyMapping:
    def test_single_node_falls_back_to_ring(self):
        topo = CartTopology((2, 2, 1), ranks_per_node=4)
        assert [topo.buddy_rank(r) for r in range(4)] == [1, 2, 3, 0]

    def test_multi_node_buddy_is_off_node(self):
        topo = CartTopology((2, 2, 1), ranks_per_node=2)
        for rank in range(4):
            buddy = topo.buddy_rank(rank)
            assert not topo.is_intra_node(rank, buddy)

    def test_single_rank_has_no_buddy(self):
        topo = CartTopology((1, 1, 1))
        with pytest.raises(ValueError, match="at least 2 ranks"):
            topo.buddy_rank(0)


class TestDeadEndpointSemantics:
    def test_dead_peer_raises_on_send_and_receive(self):
        comm = SimComm(2)
        channel = ResilientChannel(comm)
        comm.kill(1)
        assert comm.is_dead(1)
        assert comm.dead_ranks() == (1,)
        with pytest.raises(RankDeadError, match="send from rank 1"):
            channel._send(0, 1, 0, 0, None, 32, None)
        with pytest.raises(RankDeadError, match="receive from rank 1"):
            channel._receive(0, 0, 1, 0, 32, lambda: None)
        with pytest.raises(RankDeadError):
            comm.allreduce_sum([1.0, 2.0])

    def test_agree_dead_is_collective_truth(self):
        comm = SimComm(4)
        comm.kill(2)
        assert comm.agree_dead() == (2,)

    def test_repair_revives_and_purges(self):
        """A phase a crash aborts leaves its posted header held; repair
        purges it, and the same channel talks again with no reset."""
        comm = SimComm(2)
        channel = ResilientChannel(comm)
        channel._send(0, 1, 0, 0, None, 32, None)
        comm.kill(1)
        with pytest.raises(RankDeadError):
            channel._send(0, 0, 1, 0, None, 32, None)
        assert comm.pending == 1
        assert comm.repair(revive=[1]) == 1
        assert comm.dead_ranks() == ()
        assert comm.repairs == 1
        comm.assert_drained()  # repair purged the in-flight header
        channel._send(0, 1, 0, 0, None, 32, None)
        channel._receive(0, 0, 1, 0, 32, lambda: None)
        comm.assert_drained()


class TestIdentityWithoutCrashes:
    def test_buddy_checkpoints_do_not_perturb_solve(self, reference):
        """Resilience on, no crash specs: bit-identical to the plain
        path even though every checkpoint is shipped to a buddy."""
        ref_result, ref_solution = reference
        solver = GMGSolver(small_config(), resilience=ResilienceConfig())
        result = solver.solve()
        assert result.status == "converged"
        assert result.residual_history == ref_result.residual_history
        np.testing.assert_array_equal(solver.solution(), ref_solution)
        counts = result.fault_counts
        assert counts["buddy_checkpoint"] == counts["checkpoint"] * 2
        assert result.recorder.injected_faults == 0
        assert result.recorder.detected_faults == 0
        assert result.recovered_ranks == []
        assert result.bytes_restored == 0
        solver.comm.assert_drained()

    def test_buddy_traffic_invisible_to_message_accounting(self, reference):
        """Replica shipping must not contaminate the priced message
        record the perf model and commviz read."""
        ref_result, _ = reference
        solver = GMGSolver(small_config(), resilience=ResilienceConfig())
        result = solver.solve()
        assert len(result.recorder.messages) == len(
            ref_result.recorder.messages
        )


class TestSingleCrashRecovery:
    @pytest.fixture(scope="class")
    def crashed(self):
        plan = crash_plan(FaultSpec("rank_crash", rank=1, vcycle=2))
        solver = GMGSolver(small_config(), fault_plan=plan)
        return solver, solver.solve()

    def test_converges_to_reference_tolerance(self, crashed, reference):
        ref_result, ref_solution = reference
        solver, result = crashed
        assert result.status == "converged"
        assert result.final_residual == ref_result.final_residual
        # buddy restore replays from a coordinated checkpoint, so the
        # recovered solve is bit-identical, not merely tolerable
        assert result.residual_history == ref_result.residual_history
        np.testing.assert_array_equal(solver.solution(), ref_solution)

    def test_reports_recovered_ranks_and_slo_numbers(self, crashed):
        _, result = crashed
        assert result.recovered_ranks == [1]
        assert result.mttr_s > 0
        assert result.bytes_restored > 0
        assert result.cycles_lost >= 1

    def test_event_counts_tell_the_recovery_story(self, crashed):
        solver, result = crashed
        counts = result.fault_counts
        assert counts["inject_rank_crash"] == 1
        assert counts["detect_rank_crash"] == 1
        assert counts["comm_repair"] == 1
        assert counts["buddy_restore"] == 1
        assert counts["rollback"] == 1
        assert "global_restart" not in counts
        assert solver.comm.repairs == 1
        solver.comm.assert_drained()

    def test_recovery_gauges_exported(self, crashed):
        _, result = crashed
        registry = solve_metrics(result.recorder, result=result)
        assert registry.get("recovery.mttr_ms") > 0
        assert registry.get("recovery.bytes_restored") == result.bytes_restored
        assert registry.get("recovery.recovered_ranks") == 1
        assert registry.get("faults.comm_repair") == 1

    def test_level_pinned_crash_strikes_at_exchange(self, reference):
        """A level-pinned spec kills the victim as it enters that
        level's exchange — recovery must still replay bit-identically."""
        ref_result, ref_solution = reference
        plan = crash_plan(FaultSpec("rank_crash", rank=0, vcycle=3, level=1))
        solver = GMGSolver(small_config(), fault_plan=plan)
        result = solver.solve()
        assert result.status == "converged"
        assert result.recovered_ranks == [0]
        assert result.residual_history == ref_result.residual_history
        np.testing.assert_array_equal(solver.solution(), ref_solution)

    def test_crash_before_first_checkpoint_restarts_globally(
        self, reference
    ):
        """A crash at the initial residual (no checkpoint yet) cannot
        use the buddy rung; the restart rung re-derives the fault-free
        initial state deterministically."""
        ref_result, ref_solution = reference
        plan = crash_plan(FaultSpec("rank_crash", rank=1, vcycle=0))
        solver = GMGSolver(small_config(), fault_plan=plan)
        result = solver.solve()
        assert result.status == "converged"
        assert result.recovered_ranks == [1]
        assert result.fault_counts["global_restart"] == 1
        assert result.residual_history == ref_result.residual_history
        np.testing.assert_array_equal(solver.solution(), ref_solution)


class TestBuddyPairCrash:
    def test_dead_buddy_pair_falls_back_to_global_restart(self, reference):
        """On 2 ranks each rank holds the other's replica, so a
        simultaneous pair crash invalidates both replicas — the ladder
        must drop to the restart rung and still converge."""
        ref_result, ref_solution = reference
        plan = crash_plan(
            FaultSpec("rank_crash", rank=0, vcycle=2),
            FaultSpec("rank_crash", rank=1, vcycle=2),
        )
        solver = GMGSolver(small_config(), fault_plan=plan)
        result = solver.solve()
        assert result.status == "converged"
        assert result.recovered_ranks == [0, 1]
        counts = result.fault_counts
        assert counts["global_restart"] == 1
        assert "buddy_restore" not in counts
        assert result.bytes_restored == 0
        assert result.residual_history == ref_result.residual_history
        np.testing.assert_array_equal(solver.solution(), ref_solution)


class TestCrashStorm:
    def test_persistent_crash_exhausts_budget_without_hanging(self):
        plan = crash_plan(
            FaultSpec("rank_crash", rank=1, vcycle_from=1, max_hits=None)
        )
        solver = GMGSolver(small_config(), fault_plan=plan)
        result = solver.solve()  # must return, not raise or hang
        assert result.status == STATUS_FAILED_FAULTS
        assert not result.converged
        assert result.rollbacks == ResilienceConfig().recovery_budget
        assert result.fault_counts["give_up"] == 1

    def test_storm_with_disabled_buddy_also_degrades(self):
        """Without replicas every recovery is a restart; the budget
        still bounds the retry loop."""
        plan = crash_plan(
            FaultSpec("rank_crash", rank=1, vcycle_from=1, max_hits=None)
        )
        res = ResilienceConfig(buddy_checkpoints=False, recovery_budget=2)
        solver = GMGSolver(small_config(), resilience=res, fault_plan=plan)
        result = solver.solve()
        assert result.status == STATUS_FAILED_FAULTS
        assert result.rollbacks == 2
        assert result.fault_counts.get("buddy_checkpoint", 0) == 0


class TestAgglomerationCrash:
    """ISSUE satellite: a rank crash during an ``AgglomerationTransfer``
    gather/scatter must complete from the buddy snapshot or roll back
    cleanly — no hung waitall, no partially staged coarse block."""

    def agg_config(self):
        # level 3 runs on one rank: a level-3 spec strikes exactly at
        # the gather/scatter transfer entry
        return SolverConfig(
            global_cells=32, num_levels=4, brick_dim=4, max_smooths=6,
            bottom_smooths=20, max_vcycles=8, rank_dims=(2, 2, 2),
            agglomerate_threshold=64,
        )

    @pytest.fixture(scope="class")
    def agg_reference(self):
        solver = GMGSolver(self.agg_config())
        result = solver.solve()
        return result, solver.solution()

    @pytest.mark.parametrize("victim", [5, 0])
    def test_crash_at_transfer_recovers_bitwise(self, victim, agg_reference):
        """Kill a gather source (5) and the merge owner (0) in turn."""
        ref_result, ref_solution = agg_reference
        plan = crash_plan(
            FaultSpec("rank_crash", rank=victim, vcycle=1, level=3)
        )
        solver = GMGSolver(self.agg_config(), fault_plan=plan)
        result = solver.solve()
        assert result.status == ref_result.status
        assert result.recovered_ranks == [victim]
        counts = result.fault_counts
        assert counts["detect_rank_crash"] == 1
        assert counts["buddy_restore"] == 1
        # the partially gathered coarse block was never committed: the
        # replayed history is bit-identical to the crash-free solve
        assert result.residual_history == ref_result.residual_history
        np.testing.assert_array_equal(solver.solution(), ref_solution)
        solver.comm.assert_drained()
