"""The fault scenario table behind ``python -m repro faultsweep`` and
``python -m repro chaossweep``.

A :class:`Scenario` is one seeded solve under a :class:`FaultPlan`.
:func:`run` solves each distinct configuration once fault-free as the
reference, then every scenario, and returns one :class:`Outcome` per
scenario: what was injected and detected, how the solver recovered and
whether it matches the reference.  :func:`battery` lists message and
kernel faults, :func:`crash_matrix` rank crashes.  One gate,
:attr:`Outcome.passed`, judges every row.  Everything but the
wall-clock ``mttr_ms`` is a pure function of the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.pricing import resilience_overhead
from repro.faults.recovery import ResilienceConfig
from repro.gmg.solver import GMGSolver, SolverConfig, estimate_solve_time


@dataclass(frozen=True)
class Scenario:
    """One named fault plan pushed through one solver configuration."""

    name: str
    config: SolverConfig
    plan: FaultPlan
    checkpoint_interval: int = ResilienceConfig.checkpoint_interval
    expect_status: str = "converged"

    def solver(self) -> GMGSolver:
        """The resilient solver this scenario runs."""
        resilience = ResilienceConfig(checkpoint_interval=self.checkpoint_interval)
        return GMGSolver(self.config, resilience=resilience, fault_plan=self.plan)


@dataclass(frozen=True)
class Outcome:
    """One scenario's recovery and its comparison with the reference."""

    scenario: str
    expect_status: str
    status: str
    injected: int
    detected: int
    retries: int
    rollbacks: int
    crashes: int
    recovered_ranks: tuple[int, ...]
    clean_vcycles: int
    executed_vcycles: int
    cycles_lost: int
    final_residual: float
    tolerance_met: bool
    bit_identical: bool
    overhead_ms: float
    mttr_ms: float
    bytes_restored: int

    @property
    def extra_vcycles(self) -> int:
        return self.executed_vcycles - self.clean_vcycles

    @property
    def passed(self) -> bool:
        """Ended as expected; a converged row also matches the reference."""
        return self.status == self.expect_status and (
            self.status != "converged" or (self.tolerance_met and self.bit_identical)
        )


def _config(rank_dims: tuple[int, int, int], why: str) -> SolverConfig:
    """The table's workload: a small distributed solve (``why`` it must be)."""
    config = SolverConfig(
        global_cells=16,
        num_levels=2,
        brick_dim=4,
        max_smooths=6,
        bottom_smooths=20,
        rank_dims=rank_dims,
    )
    if config.num_ranks < 2:
        raise ValueError(f"needs at least 2 ranks: {why}")
    return config


def battery(seed: int, rank_dims: tuple[int, int, int] = (2, 1, 1)) -> list[Scenario]:
    """The message and kernel fault battery, seeded for the random burst."""
    config = _config(rank_dims, "one rank posts no message to fault")
    last = config.num_ranks - 1
    plans = {
        "no-faults": FaultPlan(),
        "drop-message": FaultPlan.single("drop", vcycle=1, level=0),
        "corrupt-message": FaultPlan.single("corrupt", vcycle=1, level=0),
        "duplicate-message": FaultPlan.single("duplicate", vcycle=2, level=0),
        "delay-message": FaultPlan.single("delay", vcycle=1, level=0),
        "sdc-nan-finest": FaultPlan.single("sdc", vcycle=2, level=0, rank=0),
        "sdc-inf-coarse": FaultPlan.single(
            "sdc", vcycle=3, level=1, rank=last, sdc_value=float("inf")
        ),
        "random-burst": FaultPlan.random(
            seed, num_faults=4, vcycles=(1, 4), levels=(0, 1),
            num_ranks=config.num_ranks,
        ),
    }
    storm = FaultPlan.single("drop", vcycle_from=1, level=0, max_hits=None)
    return [Scenario(name, config, plan) for name, plan in plans.items()] + [
        Scenario("drop-storm", config, storm, expect_status="failed_faults")
    ]


def crash_matrix(
    seed: int,
    rank_dims: tuple[int, int, int] = (2, 2, 2),
    cycles: tuple[int, ...] = (1, 3),
    counts: tuple[int, ...] = (1, 2),
    intervals: tuple[int, ...] = (1, 2),
    storm: bool = False,
) -> list[Scenario]:
    """The seeded rank-crash matrix, one scenario per cell.

    Counts are clamped to leave one survivor and repeats dropped, so
    every cell has its own name; the victims of each (cycle, count) are
    drawn without replacement from one seeded generator.  ``storm``
    appends ``crash-storm``: its victim dies again after every repair,
    so it cannot converge as it expects to and fails the gate — the
    inverted self-test.
    """
    config = _config(rank_dims, "a rank crash must leave a survivor")
    n = config.num_ranks
    rng = np.random.default_rng(seed)
    scenarios = []
    for cycle in dict.fromkeys(cycles):
        for count in dict.fromkeys(min(c, n - 1) for c in counts):
            victims = sorted(int(r) for r in rng.choice(n, size=count, replace=False))
            plan = FaultPlan(
                specs=tuple(FaultSpec("rank_crash", rank=r, vcycle=cycle) for r in victims)
            )
            scenarios += [
                Scenario(f"c{cycle}x{count}-k{k}", config, plan, checkpoint_interval=k)
                for k in dict.fromkeys(intervals)
            ]
    if storm:
        plan = FaultPlan.single("rank_crash", rank=n - 1, vcycle_from=1, max_hits=None)
        scenarios.append(Scenario("crash-storm", config, plan, checkpoint_interval=2))
    return scenarios


def _overhead_ms(solver: GMGSolver, result, machine) -> float:
    """The resilience events' modelled cost on ``machine``."""
    config = solver.config
    per_vcycle = estimate_solve_time(config, machine, 1) if result.executed_vcycles else 0.0
    breakdown = resilience_overhead(
        machine,
        result.recorder,
        num_nodes=solver.topology.num_nodes,
        ranks_per_node=config.ranks_per_node,
        recomputed_vcycles=result.executed_vcycles - result.num_vcycles,
        vcycle_seconds=per_vcycle,
    )
    return breakdown.total_s * 1e3


def run(scenarios: list[Scenario], machine=None) -> list[Outcome]:
    """Solve every scenario against its configuration's fault-free
    reference; ``machine`` prices the resilience overhead when given."""
    references = {}
    for config in dict.fromkeys(s.config for s in scenarios):
        solver = GMGSolver(config)
        references[config] = (solver.solve().final_residual, solver.solution())
    rows = []
    for sc in scenarios:
        reference_residual, reference_solution = references[sc.config]
        solver = sc.solver()
        result = solver.solve()
        rec = result.recorder
        rows.append(Outcome(
            scenario=sc.name,
            expect_status=sc.expect_status,
            status=result.status,
            injected=rec.injected_faults,
            detected=rec.detected_faults,
            retries=rec.retries,
            rollbacks=result.rollbacks,
            crashes=result.fault_counts.get("inject_rank_crash", 0),
            recovered_ranks=tuple(result.recovered_ranks),
            clean_vcycles=result.num_vcycles,
            executed_vcycles=result.executed_vcycles,
            cycles_lost=result.cycles_lost,
            final_residual=result.final_residual,
            tolerance_met=(
                math.isfinite(result.final_residual)
                and math.isfinite(reference_residual)
                and result.final_residual <= max(sc.config.tol, reference_residual)
            ),
            bit_identical=result.status == "converged"
            and np.array_equal(solver.solution(), reference_solution),
            overhead_ms=0.0 if machine is None else _overhead_ms(solver, result, machine),
            mttr_ms=result.mttr_s * 1e3,
            bytes_restored=result.bytes_restored,
        ))
    return rows


def _residual(r: Outcome) -> str:
    return "nan" if math.isnan(r.final_residual) else f"{r.final_residual:.2e}"


#: (header, format spec, cell) per column of a rendered table
FAULT_COLUMNS = (
    ("scenario", "<18", lambda r: r.scenario),
    ("status", "<13", lambda r: r.status),
    ("inj", ">4", lambda r: r.injected),
    ("det", ">4", lambda r: r.detected),
    ("rty", ">4", lambda r: r.retries),
    ("rbk", ">4", lambda r: r.rollbacks),
    ("cycles", ">6", lambda r: r.clean_vcycles),
    ("extra", ">5", lambda r: r.extra_vcycles),
    ("residual", ">10", _residual),
    ("identical", ">9", lambda r: r.bit_identical),
    ("ovh(ms)", ">8", lambda r: f"{r.overhead_ms:.3f}"),
)
CRASH_COLUMNS = (
    ("scenario", "<14", lambda r: r.scenario),
    ("status", "<13", lambda r: r.status),
    ("crash", ">5", lambda r: r.crashes),
    ("recovered", ">12", lambda r: ",".join(map(str, r.recovered_ranks)) or "-"),
    ("rbk", ">4", lambda r: r.rollbacks),
    ("cycles", ">6", lambda r: r.clean_vcycles),
    ("lost", ">4", lambda r: r.cycles_lost),
    ("residual", ">10", _residual),
    ("tol", ">5", lambda r: r.tolerance_met),
    ("ident", ">5", lambda r: r.bit_identical),
    ("mttr(ms)", ">8", lambda r: f"{r.mttr_ms:.2f}"),
    ("restored", ">9", lambda r: r.bytes_restored),
)


def render(rows: list[Outcome], title: str, columns) -> str:
    """``title``, a header and one line per row in ``columns``."""
    header = " ".join(f"{name:{spec}}" for name, spec, _ in columns)
    lines = [title, header, "-" * len(header)]
    for r in rows:
        lines.append(" ".join(f"{str(cell(r)):{spec}}" for _, spec, cell in columns))
    return "\n".join(lines)
