"""Profiled solves: run, aggregate, render — the ``repro profile`` core.

One entry point, :func:`profile_solve`, runs a fully traced functional
solve and returns a :class:`ProfileReport` bundling the trace, the
measured per-level breakdown, the machine-model comparison, the
bridged metrics snapshot and the span-coverage figure.  The CLI's
``profile`` subcommand and the CI profile-smoke job are thin wrappers
over this module, so tests can exercise the whole path in-process.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, replace

from repro.obs.aggregate import (
    measured_vs_model_rows,
    render_measured_vs_model,
    span_coverage,
)
from repro.obs.chrome_trace import write_chrome_trace
from repro.obs.metrics import solve_metrics
from repro.obs.tracer import Tracer


def wait_fraction(tracer: Tracer) -> tuple[float, float]:
    """``(wait_s, fraction)`` of V-cycle wall time spent exchanging
    ghosts — in the simulator the copy itself, not a wait on a peer.

    Sums the durations of the root ``exchange`` spans inside the
    ``vcycle`` windows and divides by total V-cycle time.
    """
    windows = tracer.find("vcycle")
    total = sum(w.duration for w in windows)
    if total <= 0.0:
        return 0.0, 0.0
    wait = sum(
        s.duration
        for s in tracer.find("exchange")
        if any(w.start <= s.start and s.end <= w.end for w in windows)
    )
    return wait, wait / total


def exchange_path_line(solver) -> str | None:
    """One line on the ghost exchanges of a solve that posted
    per-message headers, from the tallies each exchanger kept as it
    went.

    Every exchange copies its ghosts by index off the exchange plan; an
    armed message fault, a dead endpoint or traffic in flight add
    per-message headers where the plain solve derives its accounting
    from the plan.  Saying which did, why, and what the plan moves per
    exchange keeps a profile from passing for the run it explains.
    ``None`` when no exchange posted headers — any fault-free solve,
    traced or not, and a faulted one whose faults never strike a
    message.
    """
    exchangers = solver.halo_exchangers()
    envelope = sum(ex.path_counts["envelope"] for _, ex in exchangers)
    if not envelope:
        return None
    planned = sum(ex.path_counts["planned"] for _, ex in exchangers)
    reasons = sum((ex.envelope_reasons for _, ex in exchangers), Counter())
    why = ", ".join(f"{reason}: {n}" for reason, n in reasons.items())
    itemsize = 4 if solver.config.precision == "fp32" else 8
    plans = ", ".join(
        f"l{lev}: {ex.plan.num_messages} msg / {ex.plan.nbytes(itemsize)} B"
        for lev, ex in exchangers
    )
    return (
        f"halo exchange: {envelope} of {envelope + planned} exchanges posted "
        f"per-message headers ({why}); plan per exchange and field: {plans}"
    )


def ghost_work(solver) -> list[dict]:
    """Per depth, what the native stencil calls bound on its level
    computed: ``cells`` (interior plus the clipped ghost boxes),
    ``interior`` (interior cells times sweeps) and ``slots`` (every
    slot's cells times sweeps: what an unclipped sweep computes).  No
    row for a depth no native call ran on (all of them under NumPy)."""
    from repro.dsl.native import BoundCall

    rows = []
    for lev, depth in enumerate(solver.depths):
        level = depth.level
        calls = {
            id(call): call
            for lv in (level, *level.blocks())
            for call in lv.workspace.values()
            if isinstance(call, BoundCall)
        }
        row = {"level": lev, "cells": 0, "interior": 0, "slots": 0}
        for call in calls.values():
            per_sweep = call.grid.brick_dim**3 * call.sweeps
            row["cells"] += call.cells
            row["interior"] += call.grid.num_interior * per_sweep
            row["slots"] += call.grid.num_slots * per_sweep
        if row["cells"]:
            rows.append(row)
    return rows


@dataclass
class ProfileReport:
    """Everything one profiled solve produced."""

    config: object
    result: object = field(repr=False)
    tracer: Tracer = field(repr=False)
    wallclock_s: float
    coverage: float
    rows: list[dict] = field(repr=False)
    machine_name: str | None
    metrics: dict = field(repr=False)
    #: seconds the V-cycles spent in their ``exchange`` spans
    wait_s: float = 0.0
    #: ``wait_s`` as a share of total ``vcycle`` wall time
    wait_fraction: float = 0.0
    #: the solve had no ghost exchanger at all (one periodic rank)
    ghostless: bool = False
    #: :func:`exchange_path_line` of the profiled solver
    exchange_paths: str | None = None
    #: :func:`repro.dsl.native.describe`: which backend ran the kernels
    kernels: str | None = None
    #: :func:`ghost_work` of the profiled solver
    ghost_work: list[dict] = field(default_factory=list)

    def render(self) -> str:
        """The full human-readable profile report."""
        cfg = self.config
        exchange = (
            "no ghost exchange (one periodic rank has no ghost shell)"
            if self.ghostless
            else f"wait fraction: {self.wait_fraction:.1%} of V-cycle time "
            f"in the ghost-exchange copy ({self.wait_s:.6g}s in exchange)"
        )
        lines = [
            f"profiled solve: {cfg.global_cells}^3 over {cfg.num_ranks} "
            f"rank(s), {cfg.num_levels} levels, brick {cfg.brick_dim}^3",
            f"  status={self.result.status} vcycles={self.result.num_vcycles} "
            f"wallclock={self.wallclock_s:.6g}s",
            f"  trace: {len(self.tracer.spans)} spans, "
            f"{len(self.tracer.instants)} instants, "
            f"coverage {self.coverage:.1%} of the solve span",
            f"  {exchange}",
            *([f"  {self.exchange_paths}"] if self.exchange_paths else []),
            *([f"  {self.kernels}"] if self.kernels else []),
            *([f"  {self.ghost_work_line()}"] if self.ghost_work else []),
            "",
            render_measured_vs_model(self.rows, self.machine_name),
            "",
            "metrics snapshot:",
        ]
        counters = self.metrics["counters"]
        for key in (
            "kernels.total",
            "exchanges.total",
            "messages.total",
            "messages.bytes",
            "reductions.total",
            "faults.injected",
            "faults.detected",
        ):
            if key in counters:
                lines.append(f"  {key} = {counters[key]}")
        return "\n".join(lines)

    def ghost_work_line(self) -> str:
        """Computed cells over interior cells per level, next to what
        unclipped sweeps over every slot would have computed."""
        return "stencil cells computed / interior: " + ", ".join(
            f"l{row['level']} {row['cells'] / row['interior']:.2f} "
            f"(all slots {row['slots'] / row['interior']:.2f})"
            for row in self.ghost_work
        )

    def to_json(self) -> dict:
        """Machine-readable form of the report (trace excluded)."""
        return {
            "ghost_work": self.ghost_work,
            "wallclock_s": self.wallclock_s,
            "coverage": self.coverage,
            "machine": self.machine_name,
            "wait_s": self.wait_s,
            "wait_fraction": self.wait_fraction,
            "rows": [
                {
                    "level": r["level"],
                    "op": r["op"],
                    "min": r["stat"].min,
                    "avg": r["stat"].avg,
                    "max": r["stat"].max,
                    "sigma": r["stat"].stdev,
                    "count": r["stat"].count,
                    "measured_total_s": r["measured_total_s"],
                    "model_s": r["model_s"],
                    "gbps": r["gbps"],
                }
                for r in self.rows
            ],
            "metrics": self.metrics,
        }


def profile_solve(
    config,
    machine_name: str | None = "Perlmutter",
    trace_path=None,
    fault_plan=None,
) -> ProfileReport:
    """Run one traced solve of ``config`` and aggregate the results.

    ``machine_name`` selects the model column (None skips it — also
    the fallback for non-periodic boundaries, which the performance
    harness does not model); ``trace_path`` additionally writes the
    Chrome trace-event file.

    An untraced one-cycle solve of ``config``, without the fault plan,
    runs first: a process's first native call probes the compiler and
    loads the kernels, which no span of the traced solve may time.  The
    kernel line counts the traced solve's calls only.
    """
    from repro.dsl import native
    from repro.gmg.solver import GMGSolver

    GMGSolver(replace(config, max_vcycles=1)).solve()
    before = native.call_counts()
    tracer = Tracer()
    solver = GMGSolver(config, fault_plan=fault_plan, tracer=tracer)
    t0 = time.perf_counter()
    result = solver.solve()
    wallclock = time.perf_counter() - t0

    machine = None
    if machine_name is not None and config.boundary == "periodic":
        from repro.machines import MACHINES

        machine = MACHINES[machine_name]
    else:
        machine_name = None
    rows = measured_vs_model_rows(
        tracer, config, machine, max(result.num_vcycles, 1),
        recorder=result.recorder,
    )
    wait_s, wait_frac = wait_fraction(tracer)
    report = ProfileReport(
        config=config,
        result=result,
        tracer=tracer,
        wallclock_s=wallclock,
        coverage=span_coverage(tracer),
        rows=rows,
        machine_name=machine_name,
        metrics=solve_metrics(
            result.recorder, tracer, agglomeration=solver.agglomeration,
            exchangers=solver.halo_exchangers(),
        ).snapshot(),
        wait_s=wait_s,
        wait_fraction=wait_frac,
        ghostless=not solver.halo_exchangers(),
        exchange_paths=exchange_path_line(solver),
        kernels=native.describe(since=before),
        ghost_work=ghost_work(solver),
    )
    if trace_path is not None:
        write_chrome_trace(
            tracer,
            trace_path,
            metadata={
                "tool": "repro profile",
                "global_cells": config.global_cells,
                "num_levels": config.num_levels,
                "status": result.status,
            },
        )
    return report
