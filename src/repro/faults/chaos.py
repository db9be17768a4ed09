"""The ``python -m repro chaossweep`` rank-crash matrix.

Where :mod:`repro.faults.sweep` exercises message-level faults, the
chaos harness exercises the rank-failure pipeline end to end: a seeded
matrix of **crash time × crash count × checkpoint interval**, each cell
a small distributed solve with that many ranks killed at that cycle,
recovered through the buddy-restore / global-restart ladder.  Every
cell asserts the recovery SLO the ISSUE demands: the repaired solve
must reach the *same* residual tolerance as the fault-free reference
(and, because recovery replays deterministically from a coordinated
checkpoint or a deterministic restart, the solution is bit-identical).

Everything is seeded: the crash victims are drawn from
``np.random.default_rng(seed)``, so a (seed, matrix) pair fully
determines every injected crash and the sweep is reproducible
byte-for-byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.recovery import ResilienceConfig
from repro.gmg.solver import GMGSolver, SolverConfig


@dataclass(frozen=True)
class ChaosScenario:
    """One cell of the crash matrix."""

    name: str
    plan: FaultPlan
    checkpoint_interval: int
    expect_status: str = "converged"


@dataclass(frozen=True)
class ChaosRow:
    """One scenario's recovery outcome and SLO numbers."""

    scenario: str
    status: str
    crashes: int
    recovered_ranks: tuple[int, ...]
    rollbacks: int
    clean_vcycles: int
    executed_vcycles: int
    final_residual: float
    tolerance_met: bool
    bit_identical: bool
    mttr_ms: float
    bytes_restored: int
    cycles_lost: int


def default_chaos_config(
    rank_dims: tuple[int, int, int] = (2, 2, 2),
) -> SolverConfig:
    """The chaos workload: the sweep problem on an 8-rank grid."""
    return SolverConfig(
        global_cells=16,
        num_levels=2,
        brick_dim=4,
        max_smooths=6,
        bottom_smooths=20,
        rank_dims=rank_dims,
    )


def chaos_scenarios(
    seed: int,
    num_ranks: int,
    crash_cycles: tuple[int, ...] = (1, 3),
    crash_counts: tuple[int, ...] = (1, 2),
    checkpoint_intervals: tuple[int, ...] = (1, 2),
) -> list[ChaosScenario]:
    """The seeded crash matrix.

    One scenario per (cycle, count, interval) cell; the victims are
    drawn without replacement from the seeded generator, so a given
    seed names the same ranks on every run.
    """
    if num_ranks < 2:
        raise ValueError(
            f"the chaos matrix needs a distributed solve: {num_ranks} rank(s)"
        )
    rng = np.random.default_rng(seed)
    scenarios = []
    for cycle in crash_cycles:
        for count in crash_counts:
            count = min(count, num_ranks - 1)  # leave at least one survivor
            victims = sorted(
                int(r) for r in rng.choice(num_ranks, size=count, replace=False)
            )
            plan = FaultPlan(
                specs=tuple(
                    FaultSpec("rank_crash", rank=r, vcycle=cycle)
                    for r in victims
                )
            )
            for interval in checkpoint_intervals:
                scenarios.append(
                    ChaosScenario(
                        name=f"c{cycle}x{count}-k{interval}",
                        plan=plan,
                        checkpoint_interval=interval,
                    )
                )
    return scenarios


def storm_scenario(rank: int = 1) -> ChaosScenario:
    """An unrecoverable crash: the victim dies again after every repair.

    The persistent spec re-kills the rank on each post-repair cycle
    until the recovery budget is spent, so the solve must degrade to
    ``failed_faults`` — the chaos gate's inverted self-test uses this
    to prove an unrecoverable crash actually fails the job.
    """
    return ChaosScenario(
        name="crash-storm",
        plan=FaultPlan(
            specs=(
                FaultSpec("rank_crash", rank=rank, vcycle_from=1, max_hits=None),
            )
        ),
        checkpoint_interval=2,
        expect_status="failed_faults",
    )


def run_chaos_scenario(
    config: SolverConfig,
    scenario: ChaosScenario,
    reference_history: list[float],
    reference_solution: np.ndarray,
) -> ChaosRow:
    """Execute one cell and summarise the recovery."""
    resilience = ResilienceConfig(
        checkpoint_interval=scenario.checkpoint_interval
    )
    solver = GMGSolver(config, resilience=resilience, fault_plan=scenario.plan)
    result = solver.solve()
    reference_final = (
        reference_history[-1] if reference_history else float("nan")
    )
    tolerance_met = (
        math.isfinite(result.final_residual)
        and math.isfinite(reference_final)
        and result.final_residual <= max(config.tol, reference_final)
    )
    identical = result.status == "converged" and np.array_equal(
        solver.solution(), reference_solution
    )
    counts = result.fault_counts
    return ChaosRow(
        scenario=scenario.name,
        status=result.status,
        crashes=counts.get("inject_rank_crash", 0),
        recovered_ranks=tuple(result.recovered_ranks),
        rollbacks=result.rollbacks,
        clean_vcycles=result.num_vcycles,
        executed_vcycles=result.executed_vcycles,
        final_residual=result.final_residual,
        tolerance_met=tolerance_met,
        bit_identical=identical,
        mttr_ms=result.mttr_s * 1e3,
        bytes_restored=result.bytes_restored,
        cycles_lost=result.cycles_lost,
    )


def chaos_sweep(
    seed: int = 2024,
    rank_dims: tuple[int, int, int] = (2, 2, 2),
    crash_cycles: tuple[int, ...] = (1, 3),
    crash_counts: tuple[int, ...] = (1, 2),
    checkpoint_intervals: tuple[int, ...] = (1, 2),
    storm: bool = False,
) -> list[ChaosRow]:
    """Run the matrix (plus the storm cell when asked); one row per cell."""
    config = default_chaos_config(rank_dims)
    reference_solver = GMGSolver(config)
    reference = reference_solver.solve()
    reference_solution = reference_solver.solution()
    scenarios = chaos_scenarios(
        seed, config.num_ranks, crash_cycles, crash_counts,
        checkpoint_intervals,
    )
    if storm:
        scenarios.append(storm_scenario(rank=config.num_ranks - 1))
    return [
        run_chaos_scenario(
            config, sc, reference.residual_history, reference_solution
        )
        for sc in scenarios
    ]


def chaos_passed(rows: list[ChaosRow], storm: bool = False) -> bool:
    """The chaos gate: every cell recovered to the reference tolerance.

    With ``storm``, additionally require the storm cell to have
    degraded to ``failed_faults`` — and since an unrecoverable crash is
    present, the gate as a whole reports failure (the inverted
    self-test's contract: unrecoverable crashes fail the job).
    """
    matrix_ok = all(
        r.status == "converged" and r.tolerance_met and r.bit_identical
        for r in rows
        if r.scenario != "crash-storm"
    )
    if not storm:
        return matrix_ok
    return False  # a storm run always fails the gate, by design


def render_chaos_sweep(rows: list[ChaosRow]) -> str:
    """The chaossweep report table."""
    header = (
        f"{'scenario':<14} {'status':<13} {'crash':>5} {'recovered':>12} "
        f"{'rbk':>4} {'cycles':>6} {'lost':>4} {'residual':>10} "
        f"{'tol':>5} {'ident':>5} {'mttr(ms)':>8} {'restored':>9}"
    )
    lines = ["Chaos sweep — crash / repair / restore / converge"]
    lines += [header, "-" * len(header)]
    for r in rows:
        res = "nan" if math.isnan(r.final_residual) else f"{r.final_residual:.2e}"
        recovered = ",".join(str(x) for x in r.recovered_ranks) or "-"
        lines.append(
            f"{r.scenario:<14} {r.status:<13} {r.crashes:>5} {recovered:>12} "
            f"{r.rollbacks:>4} {r.clean_vcycles:>6} {r.cycles_lost:>4} "
            f"{res:>10} {str(r.tolerance_met):>5} {str(r.bit_identical):>5} "
            f"{r.mttr_ms:>8.2f} {r.bytes_restored:>9}"
        )
    ok = sum(
        1
        for r in rows
        if r.scenario != "crash-storm" and r.status == "converged"
    )
    cells = sum(1 for r in rows if r.scenario != "crash-storm")
    lines.append(f"recovered {ok}/{cells} matrix cells to reference tolerance")
    return "\n".join(lines)
