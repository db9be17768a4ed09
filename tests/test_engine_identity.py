"""Identity suite: the solver against the oracle, byte for byte.

:class:`~repro.gmg.GMGSolver` stacks every rank's levels, smooths with
fused stencils over whole exchange windows and runs native kernels
where it can — none of which may change a float.  For any
configuration, status, residual history, assembled solution and the
stored ``x``/``Ax``/``r`` of every level must equal the seed schedule's
(``tests/oracle.py``).  This suite pins that across smoothers, cycle
types, bottom solvers, boundaries, precisions, rank decompositions and
active fault plans; it runs natively and, with the compiler masked in
CI, through the NumPy fallback.
"""

import pytest

from repro.faults import FaultPlan, ResilienceConfig
from repro.gmg import GMGSolver, SolverConfig

from tests.oracle import assert_matches_oracle, oracle_solve


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


class TestEngineModes:
    def test_default_problem(self):
        assert_matches_oracle(small_config())

    def test_multi_rank(self):
        assert_matches_oracle(small_config(rank_dims=(2, 1, 1)))

    def test_rank_count_does_not_change_the_history(self):
        """8-rank, 4-rank and 1-rank histories are one history — the
        oracle's."""
        cfg = dict(global_cells=32, num_levels=3, max_vcycles=4)
        expected = oracle_solve(small_config(**cfg)).residual_history
        for dims in [(1, 1, 1), (2, 2, 1), (2, 2, 2)]:
            result = GMGSolver(small_config(**cfg, rank_dims=dims)).solve()
            assert tuple(result.residual_history) == expected, dims


@pytest.mark.parametrize("smoother", ["jacobi", "gsrb", "sor", "chebyshev"])
@pytest.mark.parametrize("cycle", ["V", "W", "F"])
class TestFullEngineAcrossAlgorithms:
    def test_smoother_cycle(self, smoother, cycle):
        assert_matches_oracle(small_config(smoother=smoother, cycle=cycle))


class TestFullEngineVariants:
    @pytest.mark.parametrize("bottom", ["relaxation", "cg", "fft"])
    def test_bottom_solvers(self, bottom):
        assert_matches_oracle(small_config(bottom_solver=bottom))

    def test_three_levels(self):
        assert_matches_oracle(small_config(global_cells=32, num_levels=3))

    def test_fp32(self):
        assert_matches_oracle(small_config(precision="fp32"))

    @pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
    def test_nonperiodic_boundaries(self, boundary):
        assert_matches_oracle(small_config(boundary=boundary))

    def test_two_by_two_ranks(self):
        assert_matches_oracle(small_config(rank_dims=(2, 2, 1)))

    def test_eight_ranks(self):
        assert_matches_oracle(
            small_config(
                global_cells=32, num_levels=3, rank_dims=(2, 2, 2), max_vcycles=4
            )
        )

    def test_non_default_damping(self):
        assert_matches_oracle(small_config(smoother_options=(("omega", 0.8),)))


class TestEngineUnderFaults:
    """Fault detection, retry and rollback address per-rank fields; the
    stacked storage must alias them transparently, so a faulty run
    recovers to the oracle's history."""

    def test_recovery_is_identical(self):
        result, _ = assert_matches_oracle(
            small_config(rank_dims=(2, 1, 1)),
            fault_plan=FaultPlan.single("drop", vcycle=1, level=0),
        )
        assert result.fault_counts["inject_drop"] == 1

    def test_checkpointed_resilience_identical(self):
        assert_matches_oracle(
            small_config(rank_dims=(2, 1, 1)), resilience=ResilienceConfig()
        )
