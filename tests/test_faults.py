"""Fault injection, detection, recovery, and degradation.

Acceptance contract (ISSUE 1): with injection disabled the resilient
path is bit-identical to the plain path; every injected fault is
detected; recovery lands on the same converged residual in a
deterministic number of extra V-cycles; an exhausted recovery budget
degrades to ``status='failed_faults'`` instead of raising; and the
recorder's fault/retry/rollback counts match the plan exactly.
"""

import math

import numpy as np
import pytest

from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    ResilienceConfig,
    STATUS_FAILED_FAULTS,
)
from repro.faults.pricing import checkpoint_seconds, resilience_overhead
from repro.faults.scenarios import FAULT_COLUMNS, battery, render, run
from repro.gmg import GMGSolver, SolverConfig
from repro.gmg.solver import SolveResult
from repro.instrument import Recorder
from repro.machines import MACHINES


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


@pytest.fixture(scope="module")
def reference():
    """Fault-free solve of the shared small config."""
    solver = GMGSolver(small_config())
    result = solver.solve()
    return result, solver.solution()


class TestFaultPlan:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meteor")

    def test_rejects_bad_direction(self):
        with pytest.raises(ValueError, match="direction"):
            FaultSpec("drop", direction=(0, 0, 0))

    def test_rejects_zero_hits(self):
        with pytest.raises(ValueError, match="max_hits"):
            FaultSpec("drop", max_hits=0)

    def test_message_matching(self):
        spec = FaultSpec("drop", vcycle=2, level=1, src=0, rank=1,
                         direction=(1, 0, 0))
        assert spec.matches_message(2, 1, 0, 1, (1, 0, 0))
        assert not spec.matches_message(3, 1, 0, 1, (1, 0, 0))
        assert not spec.matches_message(2, 0, 0, 1, (1, 0, 0))
        assert not spec.matches_message(2, 1, 1, 1, (1, 0, 0))
        assert not spec.matches_message(2, 1, 0, 0, (1, 0, 0))
        assert not spec.matches_message(2, 1, 0, 1, (-1, 0, 0))

    def test_vcycle_from_matches_later_cycles(self):
        spec = FaultSpec("sdc", vcycle_from=3)
        assert not spec.matches_kernel(2, 0, 0)
        assert spec.matches_kernel(3, 0, 0)
        assert spec.matches_kernel(7, 0, 0)

    def test_random_plan_is_seed_deterministic(self):
        a = FaultPlan.random(7, num_faults=5, num_ranks=4)
        b = FaultPlan.random(7, num_faults=5, num_ranks=4)
        assert a == b
        c = FaultPlan.random(8, num_faults=5, num_ranks=4)
        assert a != c

    def test_total_planned_hits(self):
        plan = FaultPlan(specs=(FaultSpec("drop"), FaultSpec("corrupt", max_hits=2)))
        assert plan.total_planned_hits == 3
        persistent = plan.with_specs([FaultSpec("drop", max_hits=None)])
        assert persistent.total_planned_hits is None


class TestUnstrikableMessageSpecs:
    """A message spec that matches no message the solve posts used to
    sit in the plan: the solve converged with nothing injected and
    nothing said.  Now the solver names it at construction."""

    CONFIG = dict(global_cells=16, num_levels=2, brick_dim=4)

    def test_one_rank_posts_no_message(self):
        # a communicator of one copies its periodic wrap within the rank
        plan = FaultPlan.single("drop", level=0, vcycle=1)
        with pytest.raises(ValueError) as err:
            GMGSolver(SolverConfig(**self.CONFIG), resilience=ResilienceConfig(),
                      fault_plan=plan)
        message = str(err.value)
        assert "spec 0 (drop): level=0 matches no message" in message
        assert "could never fire" in message

    def test_no_plan_message_from_a_rank_to_itself(self):
        # on 2x2x2 rank 0's +x neighbour is rank 4: nothing flows 0 -> 0
        plan = FaultPlan.single("drop", src=0, rank=0, direction=(1, 0, 0))
        with pytest.raises(ValueError) as err:
            GMGSolver(
                SolverConfig(**self.CONFIG, rank_dims=(2, 2, 2)),
                resilience=ResilienceConfig(), fault_plan=plan,
            )
        assert (
            "spec 0 (drop): src=0, rank=0, direction=(1, 0, 0) matches no "
            "message"
        ) in str(err.value)

    @pytest.mark.parametrize(
        "spec",
        [
            FaultSpec("drop", src=0, rank=4, direction=(1, 0, 0)),
            FaultSpec("corrupt", src=0, rank=1),  # halo or replica
            FaultSpec("delay", level=1, rank=7),
        ],
        ids=["halo", "level-free", "receiver-only"],
    )
    def test_specs_with_a_message_to_strike_are_accepted(self, spec):
        GMGSolver(
            SolverConfig(**self.CONFIG, rank_dims=(2, 2, 2)),
            resilience=ResilienceConfig(), fault_plan=FaultPlan(specs=(spec,)),
        )

    def test_rows_are_checked_without_the_cycle(self):
        spec = FaultSpec("drop", vcycle=5, level=1, src=0)
        assert spec.matches_row(1, 0, 3, None)
        assert not spec.matches_row(0, 0, 3, None)
        assert not FaultSpec("sdc").matches_row(0, 0, 0, None)


class TestInjectorDeterminism:
    def test_exhaustion_and_hit_counting(self):
        plan = FaultPlan.single("drop", vcycle=1)
        rec = Recorder()
        inj = FaultInjector(plan, rec)
        inj.begin_vcycle(1)
        assert inj.message_action(0, 0, 1, 3, (1, 0, 0), 64) is not None
        assert inj.exhausted
        assert inj.message_action(0, 0, 1, 3, (1, 0, 0), 64) is None
        assert rec.fault_counts() == {"inject_drop": 1}

    def test_corrupt_action_is_seeded(self):
        plan = FaultPlan.single("corrupt", vcycle=0)
        a = FaultInjector(plan, seed=5).message_action(0, 0, 1, 0, (1, 0, 0), 256)
        b = FaultInjector(plan, seed=5).message_action(0, 0, 1, 0, (1, 0, 0), 256)
        assert (a.corrupt_byte, a.corrupt_bit) == (b.corrupt_byte, b.corrupt_bit)


class TestMayStrike:
    """``FaultInjector.may_strike``: can an armed message fault hit an
    exchange at this level in the current V-cycle?"""

    def injector(self, *specs, vcycle=0):
        inj = FaultInjector(FaultPlan(specs=specs))
        inj.begin_vcycle(vcycle)
        return inj

    def test_follows_the_vcycle_pin(self):
        inj = self.injector(FaultSpec("drop", vcycle=2, level=1))
        assert not inj.may_strike(1)
        inj.begin_vcycle(2)
        assert inj.may_strike(1) and not inj.may_strike(0)
        assert inj.may_strike()  # some level of this cycle
        inj.begin_vcycle(3)
        assert not inj.may_strike(1) and not inj.may_strike()

    def test_vcycle_from_matches_every_later_cycle(self):
        inj = self.injector(
            FaultSpec("delay", vcycle_from=2, level=0, max_hits=None), vcycle=1
        )
        assert not inj.may_strike(0)
        for cycle in (2, 3, 9):
            inj.begin_vcycle(cycle)
            assert inj.may_strike(0) and not inj.may_strike(1)

    def test_level_free_spec_matches_every_level(self):
        inj = self.injector(FaultSpec("corrupt", vcycle=1), vcycle=1)
        assert inj.may_strike(0) and inj.may_strike(3) and inj.may_strike()

    def test_one_shot_exhaustion_disarms(self):
        inj = self.injector(FaultSpec("duplicate", vcycle=1, level=0), vcycle=1)
        assert inj.may_strike(0)
        assert inj.message_action(0, 0, 1, 3, (1, 0, 0), 64) is not None
        assert not inj.may_strike(0)

    def test_per_message_predicates_do_not_narrow_it(self):
        """``src``/``rank``/``direction`` pick the message, not the
        exchange: any exchange of the cycle and level may carry it."""
        inj = self.injector(
            FaultSpec("drop", vcycle=1, level=0, src=0, rank=1,
                      direction=(1, 0, 0)),
            vcycle=1,
        )
        assert inj.may_strike(0)

    @pytest.mark.parametrize(
        "spec",
        [
            FaultSpec("sdc", max_hits=None),
            FaultSpec("rank_crash", rank=1, max_hits=None),
            FaultSpec("rank_crash", rank=1, level=0, max_hits=None),
        ],
        ids=["sdc", "rank_crash", "level-pinned-rank_crash"],
    )
    def test_sdc_and_crash_specs_never_demand_envelopes(self, spec):
        inj = self.injector(spec, vcycle=1)
        assert not inj.may_strike(0) and not inj.may_strike()


class TestBitIdenticalWithoutInjection:
    def test_resilient_path_matches_seed_behavior(self, reference):
        ref_result, ref_solution = reference
        solver = GMGSolver(small_config(), resilience=ResilienceConfig())
        result = solver.solve()
        assert result.status == "converged"
        assert result.residual_history == ref_result.residual_history
        np.testing.assert_array_equal(solver.solution(), ref_solution)
        assert result.executed_vcycles == result.num_vcycles
        assert result.rollbacks == 0


class TestMessageFaultRecovery:
    @pytest.mark.parametrize("kind", ["drop", "corrupt", "delay"])
    def test_retry_recovers_bitwise(self, kind, reference):
        ref_result, ref_solution = reference
        plan = FaultPlan.single(kind, vcycle=1, level=0)
        solver = GMGSolver(small_config(), fault_plan=plan)
        result = solver.solve()
        assert result.status == "converged"
        # retry recovery costs no extra V-cycles and lands bitwise on
        # the reference solution
        assert result.num_vcycles == ref_result.num_vcycles
        assert result.executed_vcycles == ref_result.num_vcycles
        np.testing.assert_array_equal(solver.solution(), ref_solution)
        counts = result.fault_counts
        assert counts[f"inject_{kind}"] == 1
        assert counts[f"detect_{kind}"] == 1
        assert counts["retry"] == 1
        if kind != "delay":  # a delayed message needs no retransmission
            assert counts["retransmit"] == 1

    def test_duplicate_discarded_and_drained(self, reference):
        ref_result, ref_solution = reference
        plan = FaultPlan.single("duplicate", vcycle=1, level=0)
        solver = GMGSolver(small_config(), fault_plan=plan)
        result = solver.solve()
        assert result.status == "converged"
        counts = result.fault_counts
        assert counts["inject_duplicate"] == 1
        assert counts["detect_duplicate"] == 1
        assert "retry" not in counts
        np.testing.assert_array_equal(solver.solution(), ref_solution)
        # solve() already drained: no undelivered messages may remain
        solver.comm.assert_drained()

    def test_drained_duplicate_attributed_to_final_exchange(self):
        """A duplicate that survives to the end-of-solve drain (its
        original was consumed by the solve's *final* exchange on that
        envelope, so no later receive discarded it) must be attributed
        to that exchange's level, inside an owning ``drain-stale`` span
        on the receiving rank's timeline — not recorded as ``level=-1``
        floating outside every V-cycle window, where commviz critical
        paths and the per-rank Chrome export orphan it.
        """
        from repro.obs.tracer import Tracer

        # max_vcycles=0: the initial residual check's level-0 exchange
        # is the solve's only (hence final) exchange
        plan = FaultPlan.single("duplicate", vcycle=0, level=0)
        tracer = Tracer()
        solver = GMGSolver(
            small_config(max_vcycles=0), fault_plan=plan, tracer=tracer
        )
        result = solver.solve()
        assert result.status == "max_vcycles"
        assert result.fault_counts["inject_duplicate"] == 1
        dups = result.recorder.faults_of("detect_duplicate")
        assert len(dups) == 1
        assert dups[0].level == 0
        assert dups[0].rank >= 0
        drains = [
            s
            for rank_tracer in tracer.children.values()
            for s in rank_tracer.spans
            if s.name == "drain-stale"
        ]
        assert len(drains) == 1
        assert drains[0].attrs["l"] == 0
        solver.comm.assert_drained()

    def test_duplicate_outliving_its_level_is_no_corruption(self):
        """Every level-0 header of cycle 1 is duplicated, so the last
        level-0 exchange before restriction leaves extra copies on
        envelopes the level-1 exchanger reads next.  They are stale
        duplicates there too: no size failure, retry or resend."""
        config = SolverConfig(
            global_cells=16, num_levels=2, brick_dim=4, rank_dims=(2, 2, 2),
            max_smooths=6, bottom_smooths=20, tol=1e-4,
        )
        plan = FaultPlan(specs=(
            FaultSpec("duplicate", vcycle=1, level=0, max_hits=None),
        ))
        solver = GMGSolver(
            config, resilience=ResilienceConfig(buddy_checkpoints=False),
            fault_plan=plan,
        )
        result = solver.solve()
        assert result.status == "converged"
        counts = result.fault_counts
        assert counts["detect_duplicate"] == counts["inject_duplicate"] == 1040
        assert not {"detect_corrupt", "retry", "retransmit"} & set(counts)
        assert {f.level for f in result.recorder.faults_of("detect_duplicate")} == {0, 1}
        assert solver.comm.retransmissions == 0
        solver.comm.assert_drained()

    def test_counts_match_plan_exactly(self, reference):
        plan = FaultPlan(
            specs=(
                FaultSpec("drop", vcycle=1, level=0),
                FaultSpec("corrupt", vcycle=2, level=0),
                FaultSpec("delay", vcycle=3, level=1),
            )
        )
        solver = GMGSolver(small_config(), fault_plan=plan)
        result = solver.solve()
        assert result.status == "converged"
        counts = result.fault_counts
        assert counts["inject_drop"] == 1
        assert counts["inject_corrupt"] == 1
        assert counts["inject_delay"] == 1
        assert result.recorder.injected_faults == plan.total_planned_hits == 3
        assert result.recorder.detected_faults == 3
        assert result.recorder.retries == 3


class TestKernelSdcRecovery:
    def test_nan_rollback_recovers_to_same_residual(self, reference):
        ref_result, ref_solution = reference
        plan = FaultPlan.single("sdc", vcycle=2, level=0, rank=0)
        solver = GMGSolver(
            small_config(),
            resilience=ResilienceConfig(checkpoint_interval=2),
            fault_plan=plan,
        )
        result = solver.solve()
        assert result.status == "converged"
        assert result.final_residual == ref_result.final_residual
        np.testing.assert_array_equal(solver.solution(), ref_solution)
        counts = result.fault_counts
        assert counts["inject_sdc"] == 1
        assert counts["detect_sdc"] == 1
        assert counts["rollback"] == 1
        # corrupted cycle 2 rolled back to the checkpoint of cycle 2-ε:
        # checkpoints land every 2 clean cycles, so the redo costs a
        # deterministic 2 extra cycles (the poisoned one + the replay).
        assert result.executed_vcycles - result.num_vcycles == 2

    def test_inf_poison_on_coarse_level(self, reference):
        _, ref_solution = reference
        plan = FaultPlan(
            specs=(
                FaultSpec("sdc", vcycle=3, level=1, rank=1,
                          sdc_value=float("inf")),
            )
        )
        solver = GMGSolver(small_config(), fault_plan=plan)
        result = solver.solve()
        assert result.status == "converged"
        assert result.fault_counts["rollback"] == 1
        np.testing.assert_array_equal(solver.solution(), ref_solution)

    def test_single_rank_sdc_detection(self):
        """Single-rank runs detect SDC too (no comm layer involved)."""
        plan = FaultPlan.single("sdc", vcycle=1, level=0, rank=0)
        solver = GMGSolver(small_config(rank_dims=(1, 1, 1)), fault_plan=plan)
        result = solver.solve()
        assert result.status == "converged"
        assert result.fault_counts["detect_sdc"] == 1
        assert result.fault_counts["rollback"] == 1


class TestGracefulDegradation:
    def test_persistent_drop_exhausts_budget(self):
        plan = FaultPlan(
            specs=(FaultSpec("drop", vcycle_from=1, level=0, max_hits=None),)
        )
        res_cfg = ResilienceConfig(recovery_budget=2)
        solver = GMGSolver(small_config(), resilience=res_cfg, fault_plan=plan)
        result = solver.solve()  # must not raise
        assert result.status == STATUS_FAILED_FAULTS
        assert not result.converged
        assert result.rollbacks == 2
        assert result.fault_counts["give_up"] == 1

    def test_persistent_sdc_exhausts_budget(self):
        plan = FaultPlan(
            specs=(FaultSpec("sdc", vcycle_from=1, level=0, rank=0,
                             max_hits=None),)
        )
        solver = GMGSolver(small_config(), fault_plan=plan)
        result = solver.solve()
        assert result.status == STATUS_FAILED_FAULTS
        assert result.rollbacks == ResilienceConfig().recovery_budget

    def test_fault_at_initial_residual_fails_structuredly(self):
        plan = FaultPlan(
            specs=(FaultSpec("drop", vcycle=0, level=0, max_hits=None),)
        )
        solver = GMGSolver(small_config(), fault_plan=plan)
        result = solver.solve()
        assert result.status == STATUS_FAILED_FAULTS
        assert result.residual_history == []
        assert math.isnan(result.final_residual)


class TestSolveResultEdgeCases:
    def make(self, history, num_vcycles, **kw):
        return SolveResult(
            converged=bool(history and history[-1] <= 1e-10),
            num_vcycles=num_vcycles,
            residual_history=history,
            recorder=Recorder(),
            **kw,
        )

    def test_empty_history(self):
        r = self.make([], 0, status="failed_faults")
        assert math.isnan(r.final_residual)
        assert r.convergence_factor == 1.0

    def test_single_entry_history(self):
        """Solve that stopped on the initial residual: no reduction ran."""
        r = self.make([5e-11], 0)
        assert r.converged
        assert r.final_residual == 5e-11
        assert r.convergence_factor == 1.0

    def test_status_defaults(self):
        assert self.make([1e-12], 0).status == "converged"
        assert self.make([1.0, 0.5], 1).status == "max_vcycles"
        assert self.make([], 0, status="diverged").status == "diverged"

    def test_executed_defaults_to_clean(self):
        r = self.make([1.0, 1e-12], 1)
        assert r.executed_vcycles == 1

    def test_non_finite_history_clamps_factor_to_nan(self):
        """A diverged history that overflowed must not report an ``inf``
        (or bogus complex/NaN-power) convergence factor."""
        for last in (float("inf"), float("nan")):
            r = self.make([1e-3, 1e100, last], 2, status="diverged")
            assert r.status == "diverged"
            assert math.isnan(r.convergence_factor)
        # a non-finite *initial* residual is just as meaningless
        r = self.make([float("inf"), 1.0], 1, status="diverged")
        assert math.isnan(r.convergence_factor)

    def test_finite_divergence_still_reports_growth(self):
        """The clamp must not touch finite diverging histories: a >1
        factor is the honest report there."""
        r = self.make([1.0, 4.0, 16.0], 2, status="diverged")
        assert r.convergence_factor == pytest.approx(4.0)

    def test_diverged_solve_has_finite_or_nan_factor(self):
        """End-to-end diverged-status solve: an unreachable tolerance
        stalls the residual at machine precision, the resilient driver
        flags stagnation (status ``diverged``), and
        ``convergence_factor`` must never come back as ``inf``/complex —
        finite or ``nan`` only."""
        config = small_config(max_vcycles=60, tol=1e-300)
        solver = GMGSolver(config, resilience=ResilienceConfig())
        result = solver.solve()
        assert result.status == "diverged"
        cf = result.convergence_factor
        assert isinstance(cf, float)
        assert math.isnan(cf) or math.isfinite(cf)


class TestOverheadPricing:
    def test_checkpoint_seconds_scales_with_bytes(self):
        m = MACHINES["Perlmutter"]
        assert checkpoint_seconds(m, 0) == 0.0
        assert checkpoint_seconds(m, 2 * 10**9) > checkpoint_seconds(m, 10**9) > 0

    def test_overhead_breakdown_prices_recorded_events(self):
        plan = FaultPlan.single("drop", vcycle=1, level=0)
        solver = GMGSolver(small_config(), fault_plan=plan)
        result = solver.solve()
        breakdown = resilience_overhead(
            MACHINES["Frontier"],
            result.recorder,
            recomputed_vcycles=result.executed_vcycles - result.num_vcycles,
            vcycle_seconds=1e-3,
        )
        assert breakdown.retries_s > 0
        assert breakdown.checkpoints_s > 0
        assert breakdown.total_s >= breakdown.retries_s + breakdown.checkpoints_s


class TestFaultSweep:
    @pytest.fixture(scope="class")
    def rows(self):
        return run(battery(2024), MACHINES["Perlmutter"])

    def test_all_scenarios_have_structured_status(self, rows):
        assert all(
            r.status in ("converged", "max_vcycles", "diverged", "failed_faults")
            for r in rows
        )

    def test_no_fault_scenario_is_bit_identical(self, rows):
        base = next(r for r in rows if r.scenario == "no-faults")
        assert base.bit_identical
        assert base.injected == base.detected == 0
        assert base.overhead_ms < 0.1  # checkpoints only

    def test_recoverable_scenarios_recover_bitwise(self, rows):
        for r in rows:
            if r.scenario == "drop-storm":
                continue
            assert r.status == "converged", r.scenario
            assert r.bit_identical, r.scenario
            assert r.detected >= 1 or r.scenario == "no-faults"

    def test_overhead_ranks_retry_below_rollback(self, rows):
        by_name = {r.scenario: r for r in rows}
        drop, sdc = by_name["drop-message"], by_name["sdc-nan-finest"]
        # retry-only recovery re-executes nothing; a rollback does, and
        # the re-executed V-cycles dominate the modelled overhead
        assert drop.extra_vcycles == 0
        assert sdc.extra_vcycles > 0
        assert sdc.overhead_ms > drop.overhead_ms

    def test_storm_degrades(self, rows):
        storm = next(r for r in rows if r.scenario == "drop-storm")
        assert storm.status == "failed_faults"
        assert storm.rollbacks > 0
        assert not storm.bit_identical

    def test_every_row_passes_the_gate(self, rows):
        assert all(r.passed for r in rows)

    def test_render_mentions_every_scenario(self, rows):
        text = render(rows, "Fault sweep", FAULT_COLUMNS)
        for r in rows:
            assert r.scenario in text

    def test_default_config_is_distributed(self):
        assert all(s.config.num_ranks > 1 for s in battery(2024))
