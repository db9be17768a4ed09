"""Communication–computation overlap: split kernels, split exchanges.

Acceptance contract (ISSUE 7): the interior/shell partition covers
every brick slot exactly once for every tier-1 geometry; a split
kernel application (interior pass, barrier, shell pass) is bit-identical
to the whole-grid application; an overlap-enabled solve reproduces the
oracle's synchronous residual history, solution AND stored fields
byte-for-byte across smoothers, rank decompositions and agglomeration
(``tests/oracle.py``); a rank crash
seeded into an in-flight ``begin()`` recovers bit-identically (buddy
restore and global restart rungs); and the analytic event model prices
the synchronous and overlapped schedules through one code path.
"""

import numpy as np
import pytest

from repro.bricks.batch import BatchedGrid
from repro.bricks.brick_grid import BrickGrid
from repro.bricks.partition import (
    BrickPartition,
    clear_partition_cache,
    partition_for,
)
from repro.faults import FaultPlan, FaultSpec
from repro.gmg import GMGSolver, SolverConfig

from tests.oracle import assert_matches_oracle


def small_config(**overrides) -> SolverConfig:
    base = dict(
        global_cells=16,
        num_levels=2,
        brick_dim=4,
        max_smooths=4,
        bottom_smooths=12,
        max_vcycles=6,
    )
    base.update(overrides)
    return SolverConfig(**base)


def run(config: SolverConfig, **solver_kwargs):
    solver = GMGSolver(config, **solver_kwargs)
    result = solver.solve()
    return result, solver.solution()


def assert_overlap_identical(config_kwargs):
    """An overlapped solve must match the oracle's synchronous,
    per-rank, staged-kernel schedule byte-for-byte."""
    assert_matches_oracle(small_config(**config_kwargs, overlap=True))


# ----------------------------------------------------------------------
# partition coverage
# ----------------------------------------------------------------------
#: the tier-1 geometry set: every (shape, brick, ghost depth) the small
#: solver configurations in this suite and the identity suite produce
GEOMETRIES = [
    ((4, 4, 4), 4, 1),
    ((2, 2, 2), 4, 1),
    ((1, 1, 1), 4, 1),
    ((8, 8, 8), 2, 1),
    ((4, 2, 1), 4, 1),
    ((3, 3, 3), 2, 1),
    ((4, 4, 4), 4, 2),
    ((5, 3, 2), 2, 2),
]


class TestPartitionCoverage:
    @pytest.mark.parametrize("shape,bdim,ghost", GEOMETRIES)
    def test_interior_shell_cover_every_slot_once(self, shape, bdim, ghost):
        grid = BrickGrid(shape, bdim, ghost_bricks=ghost)
        part = BrickPartition(grid)
        union = np.sort(np.concatenate([part.interior, part.shell]))
        np.testing.assert_array_equal(union, np.arange(grid.num_slots))

    @pytest.mark.parametrize("shape,bdim,ghost", GEOMETRIES)
    def test_ghost_slots_always_in_shell(self, shape, bdim, ghost):
        grid = BrickGrid(shape, bdim, ghost_bricks=ghost)
        part = BrickPartition(grid)
        assert set(grid.ghost_slots).issubset(set(part.shell))

    @pytest.mark.parametrize("shape,bdim,ghost", GEOMETRIES)
    def test_interior_neighbourhood_is_owned(self, shape, bdim, ghost):
        """Every deep-interior slot's 26-neighbourhood stays inside the
        owned region — a radius-<=B gather from it never reads ghosts."""
        grid = BrickGrid(shape, bdim, ghost_bricks=ghost)
        part = BrickPartition(grid)
        coords = grid.slot_to_grid[part.interior]
        lo = np.array([ghost] * 3)
        hi = np.array([ghost + n for n in shape])
        for d in (-1, 0, 1):
            for e in (-1, 0, 1):
                for f in (-1, 0, 1):
                    nbr = coords + (d, e, f)
                    assert np.all(nbr >= lo) and np.all(nbr < hi)

    def test_degenerate_shapes_have_empty_interior(self):
        # fewer than 3 bricks along any dim: no slot is 1 away from
        # both owned boundaries, so everything is shell
        for shape in [(1, 1, 1), (2, 2, 2), (2, 4, 4)]:
            part = BrickPartition(BrickGrid(shape, 2))
            assert part.interior.size == 0
            assert part.shell.size == BrickGrid(shape, 2).num_slots

    def test_batched_grid_partitions_per_rank_block(self):
        base = BrickGrid((4, 4, 4), 4)
        batched = BatchedGrid(base, 3)
        part = BrickPartition(batched)
        base_part = BrickPartition(base)
        S = base.num_slots
        expect = np.concatenate([base_part.interior + k * S for k in range(3)])
        np.testing.assert_array_equal(np.sort(part.interior), np.sort(expect))
        union = np.sort(np.concatenate([part.interior, part.shell]))
        np.testing.assert_array_equal(union, np.arange(batched.num_slots))

    def test_partition_cache_shared_and_clearable(self):
        clear_partition_cache()
        g1 = BrickGrid((4, 4, 4), 4)
        g2 = BrickGrid((4, 4, 4), 4)
        assert partition_for(g1) is partition_for(g2)
        assert clear_partition_cache() >= 1
        assert partition_for(g1) is not None


# ----------------------------------------------------------------------
# split kernel application
# ----------------------------------------------------------------------
class TestSplitApply:
    def _level(self, cells=16, bdim=4):
        from repro.gmg.level import Level

        level = Level(0, (cells,) * 3, bdim, 1.0 / cells)
        rng = np.random.default_rng(7)
        for f in level.fields().values():
            f.data[...] = rng.standard_normal(f.data.shape)
        return level

    @pytest.mark.parametrize(
        "stencil_name",
        ["APPLY_OP", "SMOOTH", "RESIDUAL", "FUSED_SMOOTH_RESIDUAL"],
    )
    def test_split_matches_whole_grid(self, stencil_name):
        """Every field on every slot equals the whole-grid apply — the
        native kernel where the host has one."""
        self._check_split(stencil_name)

    @pytest.mark.parametrize("stencil_name", ["APPLY_OP", "FUSED_SMOOTH_RESIDUAL"])
    def test_split_matches_whole_grid_numpy(self, stencil_name, numpy_kernels):
        """Same, with the whole-grid apply on the NumPy path: both
        sides then gather through ``gather_extended``, one whole, one by
        slot list."""
        self._check_split(stencil_name)

    def _check_split(self, stencil_name):
        from repro.dsl import library
        from repro.dsl.codegen import compile_stencil

        stencil = getattr(library, stencil_name)
        ref = self._level()
        split = self._level()
        kernel = compile_stencil(stencil, ref.grid.brick_dim)
        kernel.apply(ref.fields(), ref.constants.as_dict(), ref.workspace)

        calls = []
        kernel.apply_split(
            split.fields(),
            split.constants.as_dict(),
            split.workspace,
            partition=partition_for(split.grid),
            barrier=lambda: calls.append("barrier"),
        )
        assert calls == ["barrier"]
        for name, field in ref.fields().items():
            np.testing.assert_array_equal(split.fields()[name].data, field.data)

    def test_rejects_mismatched_partition(self):
        from repro.dsl.codegen import compile_stencil
        from repro.dsl.library import APPLY_OP

        level = self._level()
        other = BrickGrid((2, 2, 2), 4)
        kernel = compile_stencil(APPLY_OP, level.grid.brick_dim)
        with pytest.raises(ValueError, match="partition"):
            kernel.apply_split(
                level.fields(),
                level.constants.as_dict(),
                level.workspace,
                partition=partition_for(other),
                barrier=lambda: None,
            )


# ----------------------------------------------------------------------
# end-to-end bit-identity
# ----------------------------------------------------------------------
class TestOverlapIdentity:
    def test_single_rank(self):
        assert_overlap_identical({})

    def test_two_ranks(self):
        assert_overlap_identical({"rank_dims": (2, 1, 1)})

    def test_eight_ranks_tier1(self):
        """The paper's 8-rank tier-1 problem: per-rank 4^3 brick grids
        with a genuinely non-empty deep interior."""
        assert_overlap_identical(
            {
                "global_cells": 32,
                "num_levels": 3,
                "rank_dims": (2, 2, 2),
                "max_vcycles": 4,
            }
        )

    @pytest.mark.parametrize("smoother", ["jacobi", "gsrb", "sor", "chebyshev"])
    def test_smoothers(self, smoother):
        assert_overlap_identical(
            {"rank_dims": (2, 1, 1), "smoother": smoother}
        )

    @pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
    def test_nonperiodic_boundaries(self, boundary):
        assert_overlap_identical(
            {"rank_dims": (2, 1, 1), "boundary": boundary}
        )

    def test_under_agglomeration(self):
        assert_overlap_identical(
            {
                "global_cells": 32,
                "num_levels": 3,
                "rank_dims": (2, 2, 2),
                "max_vcycles": 4,
                "agglomerate_threshold": 600,
            }
        )

    def test_unsupported_smoother_is_rejected(self):
        """A smoother without ``supports_overlap`` could read ghosts
        before any halo kernel consumed the in-flight exchange; asking
        for overlap with one is an error at construction, by name — not
        a synchronous solve the caller did not ask for."""
        from repro.gmg.smoothers import JacobiSmoother
        from repro.gmg.vcycle import VCycle

        class Plain(JacobiSmoother):
            name = "plain"
            supports_overlap = False

        solver = GMGSolver(small_config(rank_dims=(2, 1, 1)))
        with pytest.raises(ValueError, match="'plain'.*Plain"):
            VCycle(
                solver.rank_levels, solver.exchangers,
                smoother=Plain(), overlap=True,
            )
        VCycle(solver.rank_levels, solver.exchangers, smoother=Plain())

    def test_custom_apply_op_is_rejected(self):
        from repro.gmg.vcycle import VCycle

        solver = GMGSolver(small_config())
        with pytest.raises(ValueError, match="apply_op_fn"):
            VCycle(
                solver.rank_levels, solver.exchangers, overlap=True,
                apply_op_fn=lambda level, recorder: None,
            )

    def test_variable_coefficient_smoother_opts_out(self):
        """The variable-coefficient smoother inherits the safe default,
        and its solver never asks for overlap."""
        from repro.gmg.smoothers import Smoother
        from repro.gmg.varcoef import (
            VariableCoefficientJacobi,
            VariableCoefficientSolver,
        )

        assert Smoother.supports_overlap is False
        assert VariableCoefficientJacobi.supports_overlap is False
        solver = VariableCoefficientSolver(
            lambda x, y, z: 1.0 + 0 * x, global_cells=8, num_levels=2
        )
        assert solver.vcycle.overlap is False


# ----------------------------------------------------------------------
# overlap under rank crashes
# ----------------------------------------------------------------------
class TestOverlapUnderCrashes:
    def crash_config(self, **overrides):
        return small_config(
            rank_dims=(2, 1, 1),
            max_smooths=6,
            bottom_smooths=20,
            max_vcycles=100,
            **overrides,
        )

    def assert_crash_identical(self, plan_specs):
        plan = FaultPlan(specs=tuple(plan_specs))
        ref_result, ref_solution = run(self.crash_config(), fault_plan=plan)
        result, solution = run(
            self.crash_config(overlap=True),
            fault_plan=FaultPlan(specs=tuple(plan_specs)),
        )
        assert result.status == ref_result.status == "converged"
        assert result.recovered_ranks == ref_result.recovered_ranks
        assert result.residual_history == ref_result.residual_history
        np.testing.assert_array_equal(solution, ref_solution)
        return result

    def test_buddy_restore_replays_identically(self):
        result = self.assert_crash_identical(
            [FaultSpec("rank_crash", rank=1, vcycle=2)]
        )
        assert result.fault_counts["buddy_restore"] == 1

    def test_crash_during_inflight_begin(self):
        """A level-pinned crash strikes at the victim's entry into that
        level's exchange — in overlap mode that is the crash poll
        inside ``begin()``, with envelopes already posted.  Recovery
        must discard the half-finished exchange and replay."""
        result = self.assert_crash_identical(
            [FaultSpec("rank_crash", rank=0, vcycle=3, level=1)]
        )
        assert result.fault_counts["detect_rank_crash"] == 1

    def test_global_restart_replays_identically(self):
        result = self.assert_crash_identical(
            [FaultSpec("rank_crash", rank=1, vcycle=0)]
        )
        assert result.fault_counts["global_restart"] == 1


# ----------------------------------------------------------------------
# analytic model: one code path for both schedules
# ----------------------------------------------------------------------
class TestEventSimOverlap:
    def _sim(self):
        from repro.machines import MACHINES
        from repro.machines.eventsim import ExchangeEventSim

        return ExchangeEventSim(MACHINES["Perlmutter"], ranks_per_node=1)

    def _messages(self):
        from repro.machines.eventsim import SimMessage

        return [SimMessage(0, 1, 1 << 16), SimMessage(1, 0, 1 << 16)]

    def test_post_time_shifts_the_whole_phase(self):
        sim = self._sim()
        base = sim.run(self._messages())
        shifted = sim.run(self._messages(), post_time=1.0)
        assert shifted.barrier_time == pytest.approx(base.barrier_time + 1.0)

    def test_sync_is_the_zero_compute_special_case(self):
        sim = self._sim()
        sync = sim.overlap(self._messages(), compute_s=0.0)
        assert sync.hidden_s == 0.0
        assert sync.exposed_s == pytest.approx(sync.comm_s)
        assert sync.comm_s == pytest.approx(
            sim.run(self._messages()).barrier_time
        )

    def test_compute_hides_communication(self):
        sim = self._sim()
        sync = sim.overlap(self._messages(), compute_s=0.0)
        half = sim.overlap(self._messages(), compute_s=sync.comm_s / 2)
        full = sim.overlap(self._messages(), compute_s=2 * sync.comm_s)
        assert half.exposed_s == pytest.approx(sync.comm_s / 2)
        assert half.efficiency == pytest.approx(0.5)
        assert full.exposed_s == 0.0
        assert full.efficiency == 1.0
        # hiding never changes the wire cost itself
        assert half.comm_s == full.comm_s == sync.comm_s


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
class TestOverlapObservability:
    def _traced(self, overlap):
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        solver = GMGSolver(
            small_config(rank_dims=(2, 1, 1), overlap=overlap), tracer=tracer
        )
        result = solver.solve()
        return tracer, solver, result

    def test_split_spans_replace_sync_spans(self):
        tracer, _, _ = self._traced(overlap=True)
        names = {s.name for s in tracer.spans}
        assert {"exchange.begin", "exchange.finish", "interior", "shell"} <= names
        assert "exchange" not in names

    def test_efficiency_gauge_present_only_with_overlap(self):
        from repro.obs.metrics import solve_metrics

        tracer, _, result = self._traced(overlap=True)
        snap = solve_metrics(result.recorder, tracer).snapshot()
        assert 0.0 <= snap["gauges"]["overlap.efficiency"] <= 1.0

        tracer, _, result = self._traced(overlap=False)
        snap = solve_metrics(result.recorder, tracer).snapshot()
        assert "overlap.efficiency" not in snap["gauges"]

    def test_overlap_report_rows(self):
        from repro.obs.rank import overlap_report, render_overlap_report

        tracer, _, result = self._traced(overlap=True)
        rows = overlap_report(tracer)
        assert len(rows) == result.num_vcycles
        for row in rows:
            assert row.sync_exchanges == 0
            assert row.overlapped_exchanges > 0
            assert row.comm_s == pytest.approx(row.exposed_s + row.hidden_s)
            assert row.efficiency is not None
        assert "hidden" in render_overlap_report(rows)

    def test_sync_solve_reports_fully_exposed(self):
        from repro.obs.rank import overlap_efficiency, overlap_report

        tracer, _, _ = self._traced(overlap=False)
        assert overlap_efficiency(tracer) is None
        for row in overlap_report(tracer):
            assert row.overlapped_exchanges == 0
            assert row.hidden_s == 0.0
            assert row.exposed_s == pytest.approx(row.comm_s)

    def test_profile_wait_fraction(self):
        from repro.obs.profile import profile_solve

        report = profile_solve(
            small_config(rank_dims=(2, 1, 1), overlap=True), machine_name=None
        )
        assert 0.0 < report.wait_fraction < 1.0
        assert report.wait_s > 0.0
        assert "wait fraction" in report.render()
        assert report.to_json()["wait_fraction"] == report.wait_fraction
