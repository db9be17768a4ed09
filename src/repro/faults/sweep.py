"""The ``python -m repro faultsweep`` scenario table.

Runs one small distributed solve per fault scenario — message drop,
bit-flip corruption, duplication, delay, kernel SDC (NaN and Inf), a
seeded random burst, and a persistent drop storm — against a fault-free
reference, and reports for each: what was injected, what was detected,
how the solver recovered (retries / rollbacks / extra V-cycles), the
terminal status, whether the final solution is bit-identical to the
reference, and the modelled resilience overhead on a paper machine.

Everything is seeded and lockstep-deterministic: running the sweep
twice produces byte-identical tables, which is what makes the
acceptance claims testable (``tests/test_faults.py`` asserts the event
counts scenario by scenario).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.pricing import resilience_overhead
from repro.faults.recovery import ResilienceConfig
from repro.gmg.solver import GMGSolver, SolveResult, SolverConfig


@dataclass(frozen=True)
class SweepScenario:
    """One named fault plan to push through the solver."""

    name: str
    plan: FaultPlan
    expect_status: str = "converged"


@dataclass(frozen=True)
class SweepRow:
    """One scenario's outcome."""

    scenario: str
    status: str
    injected: int
    detected: int
    retries: int
    rollbacks: int
    clean_vcycles: int
    executed_vcycles: int
    final_residual: float
    bit_identical: bool
    overhead_ms: float

    @property
    def extra_vcycles(self) -> int:
        return self.executed_vcycles - self.clean_vcycles


def default_config(rank_dims: tuple[int, int, int] = (2, 1, 1)) -> SolverConfig:
    """The sweep's workload: a small distributed solve (fast, multi-rank)."""
    return SolverConfig(
        global_cells=16,
        num_levels=2,
        brick_dim=4,
        max_smooths=6,
        bottom_smooths=20,
        rank_dims=rank_dims,
    )


def default_scenarios(seed: int, num_ranks: int) -> list[SweepScenario]:
    """The standard battery, seeded for the random burst."""
    return [
        SweepScenario("no-faults", FaultPlan()),
        SweepScenario("drop-message", FaultPlan.single("drop", vcycle=1, level=0)),
        SweepScenario(
            "corrupt-message", FaultPlan.single("corrupt", vcycle=1, level=0)
        ),
        SweepScenario(
            "duplicate-message", FaultPlan.single("duplicate", vcycle=2, level=0)
        ),
        SweepScenario("delay-message", FaultPlan.single("delay", vcycle=1, level=0)),
        SweepScenario(
            "sdc-nan-finest", FaultPlan.single("sdc", vcycle=2, level=0, rank=0)
        ),
        SweepScenario(
            "sdc-inf-coarse",
            FaultPlan.single(
                "sdc", vcycle=3, level=1, rank=num_ranks - 1,
                sdc_value=float("inf"),
            ),
        ),
        SweepScenario(
            "random-burst",
            FaultPlan.random(
                seed, num_faults=4, vcycles=(1, 4), levels=(0, 1),
                num_ranks=num_ranks,
            ),
        ),
        SweepScenario(
            "drop-storm",
            FaultPlan(
                specs=(FaultSpec("drop", vcycle_from=1, level=0, max_hits=None),)
            ),
            expect_status="failed_faults",
        ),
    ]


def _run_reference(config: SolverConfig) -> tuple[SolveResult, np.ndarray]:
    solver = GMGSolver(config)
    return solver.solve(), solver.solution()


def run_scenario(
    config: SolverConfig,
    scenario: SweepScenario,
    reference_solution: np.ndarray,
    machine=None,
    resilience: ResilienceConfig | None = None,
) -> SweepRow:
    """Execute one scenario and summarise its recorder."""
    resilience = resilience or ResilienceConfig()
    solver = GMGSolver(config, resilience=resilience, fault_plan=scenario.plan)
    result = solver.solve()
    identical = result.status == "converged" and np.array_equal(
        solver.solution(), reference_solution
    )
    overhead_ms = 0.0
    if machine is not None:
        from repro.gmg.solver import estimate_solve_time

        per_vcycle = (
            estimate_solve_time(config, machine, num_vcycles=1)
            if result.executed_vcycles
            else 0.0
        )
        breakdown = resilience_overhead(
            machine,
            result.recorder,
            num_nodes=solver.topology.num_nodes,
            ranks_per_node=config.ranks_per_node,
            recomputed_vcycles=result.executed_vcycles - result.num_vcycles,
            vcycle_seconds=per_vcycle,
        )
        overhead_ms = breakdown.total_s * 1e3
    rec = result.recorder
    return SweepRow(
        scenario=scenario.name,
        status=result.status,
        injected=rec.injected_faults,
        detected=rec.detected_faults,
        retries=rec.retries,
        rollbacks=rec.rollbacks,
        clean_vcycles=result.num_vcycles,
        executed_vcycles=result.executed_vcycles,
        final_residual=result.final_residual,
        bit_identical=identical,
        overhead_ms=overhead_ms,
    )


def fault_sweep(
    seed: int = 2024,
    machine_name: str | None = "Perlmutter",
    rank_dims: tuple[int, int, int] = (2, 1, 1),
) -> list[SweepRow]:
    """Run the full battery; returns one row per scenario."""
    machine = None
    if machine_name is not None:
        from repro.machines import MACHINES

        machine = MACHINES[machine_name]
    config = default_config(rank_dims)
    _, reference = _run_reference(config)
    rows = []
    for scenario in default_scenarios(seed, config.num_ranks):
        rows.append(run_scenario(config, scenario, reference, machine))
    return rows


def render_fault_sweep(rows: list[SweepRow], machine_name: str | None = None) -> str:
    """The faultsweep report table."""
    header = (
        f"{'scenario':<18} {'status':<13} {'inj':>4} {'det':>4} {'rty':>4} "
        f"{'rbk':>4} {'cycles':>6} {'extra':>5} {'residual':>10} "
        f"{'identical':>9} {'ovh(ms)':>8}"
    )
    lines = ["Fault sweep — detect / retry / rollback / degrade"]
    if machine_name:
        lines[0] += f" (overhead modelled on {machine_name})"
    lines += [header, "-" * len(header)]
    for r in rows:
        res = "nan" if math.isnan(r.final_residual) else f"{r.final_residual:.2e}"
        lines.append(
            f"{r.scenario:<18} {r.status:<13} {r.injected:>4} {r.detected:>4} "
            f"{r.retries:>4} {r.rollbacks:>4} {r.clean_vcycles:>6} "
            f"{r.extra_vcycles:>5} {res:>10} "
            f"{str(r.bit_identical):>9} {r.overhead_ms:>8.3f}"
        )
    recovered = sum(1 for r in rows if r.status == "converged")
    lines.append(
        f"recovered {recovered}/{len(rows)} scenarios; "
        f"degraded gracefully in {sum(1 for r in rows if r.status == 'failed_faults')}"
    )
    return "\n".join(lines)
