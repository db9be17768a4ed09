"""Artifact-style self-validation.

``repro validate`` runs the reproduction's own trust chain end to end
at laptop scale and reports PASS/FAIL per check:

1. the functional solver converges to the closed-form discrete solution
   (periodic and Dirichlet);
2. a distributed solve over simulated MPI is bit-identical to serial;
3. the analytic harness's kernel-point/exchange/byte schedule equals
   the functional solver's instrumented schedule exactly;
4. the HPGMG-style baseline's residual history matches the brick
   solver's (same numerics, different layout) — HPGMG exchanges before
   every smooth, so this also pins communication-avoiding smoothing;
5. the cache and TLB simulations rank brick storage above the
   conventional layout.

Each check is also covered by the pytest suite; this module packages
them as a user-facing smoke test, the way the paper's artifact ships a
run-and-eyeball script.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def run_validation() -> list[CheckResult]:
    """Execute all self-checks; returns one result per check."""
    from repro.gmg import ArrayGMG, GMGSolver, SolverConfig, discrete_solution
    from repro.gmg.problem import discrete_solution_dirichlet
    from repro.harness.vcycle_sim import TimedSolve, WorkloadConfig
    from repro.machines import PERLMUTTER
    from repro.memsim import (
        BrickLayout,
        CacheConfig,
        RowMajorLayout,
        TLBConfig,
        measure_sweep,
        measure_sweep_tlb,
    )
    from repro.obs.aggregate import by_paper_op

    results: list[CheckResult] = []
    base = dict(global_cells=32, num_levels=3, brick_dim=4,
                max_smooths=8, bottom_smooths=40)

    # 1a. periodic convergence to the closed form
    serial = GMGSolver(SolverConfig(**base))
    res = serial.solve()
    exact = discrete_solution((32, 32, 32), 1 / 32)
    err = float(np.abs(serial.solution() - exact).max())
    results.append(_check(
        "periodic solve hits closed-form solution",
        res.converged and err < 1e-11,
        f"converged={res.converged} in {res.num_vcycles} cycles, err={err:.1e}",
    ))

    # 1b. Dirichlet convergence
    dirichlet = GMGSolver(SolverConfig(**base, boundary="dirichlet"))
    dres = dirichlet.solve()
    dexact = discrete_solution_dirichlet((32, 32, 32), 1 / 32)
    derr = float(np.abs(dirichlet.solution() - dexact).max())
    results.append(_check(
        "Dirichlet solve hits closed-form solution",
        dres.converged and derr < 1e-11,
        f"converged={dres.converged} in {dres.num_vcycles} cycles, err={derr:.1e}",
    ))

    # 2. distributed == serial, bitwise
    dist = GMGSolver(SolverConfig(**base, rank_dims=(2, 2, 2)))
    dist.solve()
    diff = float(np.abs(dist.solution() - serial.solution()).max())
    results.append(_check(
        "8-rank simulated-MPI solve bit-identical to serial",
        diff == 0.0,
        f"max |distributed - serial| = {diff:.1e}",
    ))

    # 3. analytic schedule == instrumented schedule
    cfg = SolverConfig(global_cells=32, num_levels=3, brick_dim=4,
                       max_smooths=5, bottom_smooths=7, tol=0.0,
                       max_vcycles=2, rank_dims=(2, 1, 1))
    counted = GMGSolver(cfg)
    cres = counted.solve()
    w = WorkloadConfig(per_rank_cells=(16, 32, 32), num_levels=3,
                       max_smooths=5, bottom_smooths=7,
                       rank_dims=(2, 1, 1), brick_dim=4)
    ts = TimedSolve(PERLMUTTER, w)
    n, checks = cres.num_vcycles, len(cres.residual_history)
    ok = (
        ts.schedule_kernel_points(n, checks)
        == by_paper_op(counted.recorder.kernel_points())
        and ts.schedule_exchange_counts(n, checks)
        == counted.recorder.exchange_counts()
        and ts.schedule_message_bytes(n, checks)
        == counted.recorder.message_bytes_by_level()
    )
    results.append(_check(
        "priced schedule equals instrumented schedule",
        ok,
        "kernel points, exchange phases and message bytes all match"
        if ok else "MISMATCH between model and functional solver",
    ))

    # 4. baseline numerics identical
    baseline = ArrayGMG(global_cells=32, num_levels=3, max_smooths=8,
                        bottom_smooths=40)
    bhist = baseline.solve()
    same = bhist == res.residual_history
    results.append(_check(
        "HPGMG-style baseline matches brick solver numerics",
        same,
        "residual histories identical" if same else "histories diverge",
    ))

    # 5. layout rankings from the simulators
    cache = CacheConfig(capacity_bytes=4096, line_bytes=64, ways=8)
    brick_traffic = measure_sweep(BrickLayout(16, 4), 4, cache).dram_bytes
    conv_traffic = measure_sweep(RowMajorLayout(16), 4, cache).dram_bytes
    # TLB reach needs a domain larger than the TLB's coverage: 32^3
    tlb = TLBConfig(entries=8)
    brick_walks = measure_sweep_tlb(BrickLayout(32, 4), 4, tlb).page_walks
    conv_walks = measure_sweep_tlb(RowMajorLayout(32), 4, tlb).page_walks
    ok = brick_traffic < conv_traffic and brick_walks < conv_walks
    results.append(_check(
        "brick layout moves less data (cache + TLB simulation)",
        ok,
        f"DRAM {brick_traffic}/{conv_traffic} B, "
        f"page walks {brick_walks}/{conv_walks}",
    ))
    return results


def render_validation(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.name}")
        lines.append(f"       {r.detail}")
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
