"""Coarse-level agglomeration: plan geometry, in-solver identity,
message reduction, engine interplay, and gather/scatter fault recovery."""

import numpy as np
import pytest

from repro.comm.exchange import HaloExchange
from repro.faults.plan import FaultPlan, FaultSpec
from repro.gmg import AgglomerationPlan, GMGSolver, Hierarchy, Level, SolverConfig
from repro.obs.metrics import solve_metrics

from tests.oracle import assert_matches_oracle, oracle_solve


def config_8rank(**overrides):
    """32^3 over 2x2x2 ranks, 4 levels: level 3 is 2^3 cells per rank —
    deep in latency territory, the agglomeration target."""
    base = dict(
        global_cells=32, num_levels=4, brick_dim=4, max_smooths=6,
        bottom_smooths=20, max_vcycles=8, rank_dims=(2, 2, 2),
    )
    base.update(overrides)
    return SolverConfig(**base)


class TestAgglomerationPlan:
    def test_no_agglomeration_above_threshold(self):
        plan = AgglomerationPlan((2, 2, 2), 32, 4, threshold_points=1)
        assert not plan.any_agglomerated
        assert plan.active_dims == [(2, 2, 2)] * 4

    def test_coarsest_level_merges_to_one_rank(self):
        plan = AgglomerationPlan((2, 2, 2), 32, 4, threshold_points=64)
        assert plan.active_dims[:3] == [(2, 2, 2)] * 3
        assert plan.active_dims[3] == (1, 1, 1)
        assert plan.is_agglomerated(3) and plan.transition_at(3)
        assert not plan.transition_at(2)
        # the merged level is 8x larger than the per-rank level it replaces
        assert plan.level_cells(3) == (4, 4, 4)

    def test_level_zero_never_agglomerated(self):
        plan = AgglomerationPlan((2, 2, 2), 8, 2, threshold_points=10**9)
        assert plan.active_dims[0] == (2, 2, 2)
        assert not plan.is_agglomerated(0)

    def test_multi_step_plan_is_nested(self):
        plan = AgglomerationPlan((4, 4, 4), 16, 3, threshold_points=64)
        assert plan.active_dims == [(4, 4, 4), (2, 2, 2), (1, 1, 1)]
        # nested: each level's active ranks are a subset of the previous
        prev = set(plan.active_ranks(0))
        for lev in range(1, 3):
            cur = set(plan.active_ranks(lev))
            assert cur <= prev
            prev = cur

    def test_odd_dims_stop_halving(self):
        plan = AgglomerationPlan((3, 1, 1), 12, 2, threshold_points=10**9)
        assert plan.active_dims[1] == (3, 1, 1)  # 3 is odd: nothing to halve

    def test_active_ranks_keep_their_corner(self):
        plan = AgglomerationPlan((2, 2, 2), 32, 4, threshold_points=64)
        assert plan.active_ranks(3) == [0]
        assert plan.active_ranks(2) == list(range(8))

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError, match="threshold_points"):
            AgglomerationPlan((2, 2, 2), 32, 4, threshold_points=0)


class TestConfigValidation:
    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError, match="agglomerate_threshold"):
            config_8rank(agglomerate_threshold=0)

    def test_incompatible_with_global_bottom_solvers(self):
        for bottom in ("cg", "fft"):
            with pytest.raises(ValueError, match="agglomerated"):
                config_8rank(agglomerate_threshold=64, bottom_solver=bottom)

    def test_single_rank_runs_without_agglomerator(self):
        solver = GMGSolver(SolverConfig(
            global_cells=16, num_levels=2, brick_dim=4, max_smooths=6,
            bottom_smooths=20, agglomerate_threshold=64,
        ))
        assert solver.agglomeration is None
        assert solver.solve().converged

    def test_tiny_threshold_leaves_seed_schedule(self):
        solver = GMGSolver(config_8rank(agglomerate_threshold=1))
        assert solver.agglomeration is None


def constructed(monkeypatch, *classes) -> dict[str, list]:
    """Every instance of ``classes`` constructed from here on, by class
    name."""
    made = {cls.__name__: [] for cls in classes}
    for cls in classes:
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            made[_name].append(self)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return made


class TestOneDepthList:
    """The hierarchy builds each depth once, as what computes it, and
    the cycle runs through nothing but that list."""

    #: 32^3 over 2x2x2 ranks: levels 1 and 2 merge onto rank 0
    THRESHOLD_600 = dict(
        global_cells=32, num_levels=3, brick_dim=4, rank_dims=(2, 2, 2),
        agglomerate_threshold=600,
    )

    def test_builds_only_what_runs(self, monkeypatch):
        """Three compute levels and the staging level entering level 1,
        one exchanger per depth: no full-grid twin of a merged depth."""
        made = constructed(monkeypatch, Level, HaloExchange)
        solver = GMGSolver(SolverConfig(**self.THRESHOLD_600))
        assert {k: len(v) for k, v in made.items()} == {"Level": 4, "HaloExchange": 3}
        held = [lv for d in solver.depths for lv in (d.level, d.staging) if lv is not None]
        assert sorted(map(id, held)) == sorted(map(id, made["Level"]))
        assert [d.exchanger for d in solver.depths] == made["HaloExchange"]

    def test_without_a_threshold_builds_the_same_counts(self, monkeypatch):
        made = constructed(monkeypatch, Level, HaloExchange)
        GMGSolver(SolverConfig(**{**self.THRESHOLD_600, "agglomerate_threshold": None}))
        assert {k: len(v) for k, v in made.items()} == {"Level": 3, "HaloExchange": 3}

    @pytest.mark.parametrize("threshold", [64, 600])
    def test_every_exchange_runs_through_a_depth(self, monkeypatch, threshold):
        made = constructed(monkeypatch, HaloExchange)
        solver = GMGSolver(config_8rank(agglomerate_threshold=threshold))
        solver.solve()
        moved = [ex for ex in made["HaloExchange"] if any(ex.path_counts.values())]
        assert moved
        for ex in moved:
            assert any(ex is depth.exchanger for depth in solver.depths)

    @pytest.mark.parametrize("copies", [1, 3])
    def test_slot_ids_are_the_plans_active_ranks(self, copies):
        hierarchy = Hierarchy(config_8rank(agglomerate_threshold=64), copies=copies)
        plan = hierarchy.agglomeration
        assert plan.active_dims == [(2, 2, 2)] * 3 + [(1, 1, 1)]
        for lev, depth in enumerate(hierarchy.depths):
            want = tuple(c * 8 + r for c in range(copies) for r in plan.active_ranks(lev))
            assert depth.ranks == want, lev
            assert depth.level.num_blocks == len(want)
            if depth.transfer is not None:
                assert depth.transfer.source_ranks == plan.active_ranks(lev - 1)
                assert depth.transfer.owner_ranks == plan.active_ranks(lev)
        assert [d.transfer is not None for d in hierarchy.depths] == [
            plan.transition_at(lev) for lev in range(4)
        ]

    def test_rank_levels_refuses_merged_depths_by_name(self):
        solver = GMGSolver(SolverConfig(**self.THRESHOLD_600))
        with pytest.raises(ValueError, match=r"rank_levels .* \[8, 1, 1\]"):
            solver.rank_levels  # noqa: B018


class TestInSolverIdentity:
    """The acceptance property: agglomeration changes the message
    schedule, never a single committed float."""

    def test_history_and_solution_bit_identical(self):
        off = GMGSolver(config_8rank())
        r_off = off.solve()
        on = GMGSolver(config_8rank(agglomerate_threshold=64))
        assert on.agglomeration is not None
        r_on = on.solve()
        assert r_on.residual_history == r_off.residual_history
        assert np.array_equal(on.solution(), off.solution())

    def test_identity_with_batched_engine(self):
        """A merged depth is one level stacking the active ranks' blocks;
        against the oracle's per-rank loop over the same hierarchy that
        is every stored field, and against the un-agglomerated oracle
        the history."""
        result, _ = assert_matches_oracle(config_8rank(agglomerate_threshold=64))
        off = oracle_solve(config_8rank())
        assert tuple(result.residual_history) == off.residual_history

    def test_identity_with_dirichlet_boundary(self):
        off = GMGSolver(config_8rank(boundary="dirichlet"))
        r_off = off.solve()
        on = GMGSolver(config_8rank(
            boundary="dirichlet", agglomerate_threshold=64,
        ))
        r_on = on.solve()
        assert r_on.residual_history == r_off.residual_history
        assert np.array_equal(on.solution(), off.solution())

    def test_identity_across_two_transitions(self):
        base = dict(
            global_cells=16, num_levels=3, brick_dim=4, max_smooths=6,
            bottom_smooths=10, max_vcycles=2, rank_dims=(4, 4, 4),
        )
        off = GMGSolver(SolverConfig(**base))
        r_off = off.solve()
        on = GMGSolver(SolverConfig(**base, agglomerate_threshold=64))
        plan = on.agglomeration
        assert plan.active_dims == [(4, 4, 4), (2, 2, 2), (1, 1, 1)]
        assert plan.transition_at(1) and plan.transition_at(2)
        r_on = on.solve()
        assert r_on.residual_history == r_off.residual_history
        assert np.array_equal(on.solution(), off.solution())


class TestCommunicationReduction:
    """The point of the feature: fewer exchanges, far fewer messages,
    on the agglomerated level — with identical kernel work."""

    def test_fewer_exchanges_and_messages_at_merged_level(self):
        off = GMGSolver(config_8rank())
        off.solve()
        on = GMGSolver(config_8rank(agglomerate_threshold=64))
        on.solve()
        c_off = solve_metrics(off.recorder).snapshot()["counters"]
        c_on = solve_metrics(
            on.recorder, agglomeration=on.agglomeration
        ).snapshot()["counters"]
        # merged bricks are larger -> deeper halo budget -> half the
        # exchanges per visit; one active rank -> 26 local wraps plus
        # one gather/scatter pair replace 8 ranks x 26 wire messages
        assert c_on["exchanges.level3"] < c_off["exchanges.level3"]
        assert c_on["messages.level3.count"] < c_off["messages.level3.count"] / 8
        # the fine levels are untouched
        for lev in range(3):
            assert c_on[f"messages.level{lev}.count"] == (
                c_off[f"messages.level{lev}.count"]
            )
        # identical numerical work: same points touched per kernel
        for key, val in c_off.items():
            if key.startswith("kernel_points."):
                assert c_on[key] == val, key

    def test_active_rank_gauges(self):
        on = GMGSolver(config_8rank(agglomerate_threshold=64))
        on.solve()
        snap = solve_metrics(
            on.recorder, agglomeration=on.agglomeration
        ).snapshot()
        assert snap["gauges"]["agglomeration.level3.active_ranks"] == 1
        assert snap["gauges"]["agglomeration.level0.active_ranks"] == 8
        assert snap["gauges"]["agglomeration.level3.points_per_rank"] == 64
        assert snap["gauges"]["agglomeration.threshold_points"] == 64

    def test_gather_and_scatter_are_priced(self):
        on = GMGSolver(config_8rank(agglomerate_threshold=64))
        result = on.solve()
        kinds = {ev.direction_kind for ev in on.recorder.messages}
        assert {"gather", "scatter"} <= kinds
        gathers = [
            ev for ev in on.recorder.messages if ev.direction_kind == "gather"
        ]
        # 8 sources per transition visit, one visit per V-cycle
        assert len(gathers) == 8 * result.num_vcycles
        # payload: (2, 2, 2, 2) cells of x and b in fp64
        assert all(ev.nbytes == 2 * 8 * 8 for ev in gathers)


class TestTransferFaultRecovery:
    """Satellite 5: the gather/scatter path detects, retries and
    recovers from injected wire faults exactly like halo traffic."""

    def clean_history(self):
        solver = GMGSolver(config_8rank(agglomerate_threshold=64))
        return solver.solve().residual_history

    def run_with(self, plan):
        solver = GMGSolver(
            config_8rank(agglomerate_threshold=64), fault_plan=plan
        )
        return solver, solver.solve()

    def test_dropped_gather_is_retransmitted(self):
        # level 3 has one active rank: its only wire messages are the
        # gather/scatter transfers, so a level-3 spec targets exactly them
        solver, result = self.run_with(
            FaultPlan.single("drop", vcycle=1, level=3)
        )
        assert result.status == "max_vcycles"
        assert result.fault_counts["detect_drop"] >= 1
        assert result.fault_counts["retransmit"] >= 1
        assert result.residual_history == self.clean_history()

    def test_corrupted_gather_is_detected_and_retried(self):
        spec = FaultSpec("corrupt", vcycle=1, level=3, src=1, rank=0)
        solver, result = self.run_with(FaultPlan(specs=(spec,)))
        assert result.fault_counts["detect_corrupt"] >= 1
        assert result.fault_counts["retransmit"] >= 1
        assert result.residual_history == self.clean_history()

    def test_dropped_scatter_is_recovered(self):
        # owner (global rank 0) -> source rank 5: only the scatter
        # message matches this (src, rank) pin at level 3
        spec = FaultSpec("drop", vcycle=2, level=3, src=0, rank=5)
        solver, result = self.run_with(FaultPlan(specs=(spec,)))
        assert result.fault_counts["detect_drop"] >= 1
        assert result.fault_counts["retransmit"] >= 1
        assert result.residual_history == self.clean_history()

    def test_duplicated_transfer_is_drained(self):
        solver, result = self.run_with(
            FaultPlan.single("duplicate", vcycle=1, level=3)
        )
        assert result.fault_counts["detect_duplicate"] >= 1
        assert result.residual_history == self.clean_history()
        solver.comm.assert_drained()

    def test_direction_pinned_spec_never_matches_transfers(self):
        # a direction predicate describes halo geometry; transfer
        # messages have none, and level 3's one active rank posts no
        # halo header: the spec has nothing to strike and is refused
        spec = FaultSpec(
            "drop", vcycle=1, level=3, direction=(1, 0, 0), max_hits=None
        )
        with pytest.raises(ValueError, match=r"spec 0 \(drop\): level=3, "
                           r"direction=\(1, 0, 0\) matches no message"):
            self.run_with(FaultPlan(specs=(spec,)))
        # the transfers themselves are struck by a direction-free spec
        _, result = self.run_with(FaultPlan.single("drop", vcycle=1, level=3))
        assert result.fault_counts["detect_drop"] == 1

    def test_persistent_transfer_fault_degrades_gracefully(self):
        solver, result = self.run_with(
            FaultPlan.single("drop", level=3, max_hits=None)
        )
        assert result.status == "failed_faults"


class TestIdledSdcSpecIsRejected:
    """An ``sdc`` spec pinned to a ``(level, rank)`` that agglomeration
    idles has no kernel output to poison: it used to sit in the plan and
    the solve converged with nothing injected and nothing said."""

    def test_named_at_construction(self):
        # level 3 is computed by rank 0 alone
        plan = FaultPlan(specs=(
            FaultSpec("drop", vcycle=1, level=3),
            FaultSpec("sdc", vcycle=2, level=3, rank=5),
        ))
        with pytest.raises(ValueError) as err:
            GMGSolver(config_8rank(agglomerate_threshold=64), fault_plan=plan)
        message = str(err.value)
        assert "spec 1 (sdc)" in message and "could never fire" in message
        assert "rank=5" in message and "level=3" in message
        assert "ranks [0]" in message

    @pytest.mark.parametrize(
        "spec",
        [
            FaultSpec("sdc", vcycle=1, level=3, rank=0),  # the active rank
            FaultSpec("sdc", vcycle=1, level=2, rank=5),  # a full-grid level
            FaultSpec("sdc", vcycle=1, rank=5),  # any level: fires at level 0
            FaultSpec("sdc", vcycle=1, level=3),  # any rank: fires on rank 0
        ],
        ids=["active-rank", "full-level", "level-free", "rank-free"],
    )
    def test_specs_that_can_fire_do(self, spec):
        solver = GMGSolver(
            config_8rank(agglomerate_threshold=64),
            fault_plan=FaultPlan(specs=(spec,)),
        )
        result = solver.solve()
        assert result.fault_counts["inject_sdc"] == 1
        assert result.rollbacks == 1

    def test_same_spec_is_fine_without_agglomeration(self):
        plan = FaultPlan.single("sdc", vcycle=1, level=3, rank=5)
        result = GMGSolver(config_8rank(), fault_plan=plan).solve()
        assert result.fault_counts["inject_sdc"] == 1
