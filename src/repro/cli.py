"""Command-line interface: ``python -m repro <command>``.

Mirrors the paper artifact's runner (``<exe> -s 512,512,512 -I 10 -l 6
-n 20``): a ``solve`` command for the functional solver plus one
command per paper experiment, printing the same rows the paper
reports.  ``all`` regenerates everything.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _solver_config(args: argparse.Namespace):
    from repro.gmg import SolverConfig

    dims = tuple(int(v) for v in args.ranks.split(","))
    return SolverConfig(
        global_cells=args.size,
        num_levels=args.levels,
        brick_dim=args.brick,
        max_smooths=args.smooths,
        bottom_smooths=args.bottom,
        max_vcycles=args.max_cycles,
        rank_dims=dims,
        smoother=args.smoother,
        bottom_solver=args.bottom_solver,
        cycle=args.cycle,
        boundary=args.boundary,
        communication_avoiding=not args.no_ca,
        agglomerate_threshold=getattr(args, "agglomerate_threshold", None),
    )


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.gmg import GMGSolver

    config = _solver_config(args)
    tracer = None
    if args.trace:
        from repro.obs import Tracer

        tracer = Tracer()
    solver = GMGSolver(config, tracer=tracer)
    print(
        f"solving {args.size}^3 over {config.num_ranks} rank(s), "
        f"{args.levels} levels, {args.brick}^3 bricks, "
        f"smoother={args.smoother}, bottom={args.bottom_solver}, "
        f"cycle={args.cycle}, boundary={args.boundary}"
    )
    if solver.agglomerator is not None:
        print("agglomeration plan:")
        for line in solver.agglomerator.plan.describe().splitlines():
            print(f"  {line}")
    result = solver.solve()
    for cycle, res in enumerate(result.residual_history):
        print(f"  cycle {cycle:2d}: maxNormRes = {res:.6e}")
    print(
        f"converged={result.converged} in {result.num_vcycles} cycles "
        f"(convergence factor {result.convergence_factor:.3f})"
    )
    if tracer is not None:
        from repro.obs import span_coverage, write_chrome_trace

        write_chrome_trace(
            tracer,
            args.trace,
            metadata={
                "tool": "repro solve",
                "global_cells": config.global_cells,
                "num_levels": config.num_levels,
                "status": result.status,
            },
        )
        print(
            f"wrote trace to {args.trace} ({len(tracer.spans)} spans, "
            f"{len(tracer.instants)} instants, span coverage "
            f"{span_coverage(tracer):.1%}; open in chrome://tracing or "
            f"https://ui.perfetto.dev)"
        )
        from repro.dsl import native

        print(native.describe())
    if args.verify:
        from repro.gmg import discrete_solution
        from repro.gmg.problem import discrete_solution_dirichlet

        if args.boundary == "dirichlet":
            exact = discrete_solution_dirichlet((args.size,) * 3, 1.0 / args.size)
        elif args.boundary == "neumann":
            print("(no closed-form reference for the Neumann variant)")
            return 0 if result.converged else 1
        else:
            exact = discrete_solution((args.size,) * 3, 1.0 / args.size)
        err = float(np.abs(solver.solution() - exact).max())
        print(f"max error vs closed-form discrete solution: {err:.3e}")
    return 0 if result.converged else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from repro.obs import profile_solve, validate_chrome_trace_file

    config = _solver_config(args)
    machine = None if args.machine == "none" else args.machine
    report = profile_solve(config, machine_name=machine, trace_path=args.trace)
    print(report.render())
    if args.trace:
        counts = validate_chrome_trace_file(args.trace)
        print(
            f"wrote trace to {args.trace} ({counts['spans']} spans, "
            f"{counts['instants']} instants; open in chrome://tracing or "
            f"https://ui.perfetto.dev)"
        )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_json(), fh, indent=1)
        print(f"wrote profile JSON to {args.json}")
    ok = report.result.status in ("converged", "max_vcycles")
    if not ok:
        print(f"profile FAILED: solve ended with status {report.result.status}")
        return 1
    min_coverage = args.min_coverage / 100.0
    if report.coverage < min_coverage:
        print(
            f"profile FAILED: span coverage {report.coverage:.1%} is below "
            f"the --min-coverage floor of {min_coverage:.1%} (instrumented "
            f"spans account for too little of the solve span)"
        )
        return 1
    return 0


def _cmd_commviz(args: argparse.Namespace) -> int:
    from repro.gmg import GMGSolver
    from repro.harness.ascii_plot import ascii_matrix, ascii_plot
    from repro.obs import Tracer, write_chrome_trace
    from repro.obs.profile import exchange_path_line
    from repro.obs.rank import (
        critical_paths,
        fit_message_model,
        message_time_samples,
        rank_time_breakdown,
        traffic_matrix,
    )

    config = _solver_config(args)
    if config.num_ranks < 2:
        print("commviz needs a distributed solve; pass e.g. --ranks 2,2,2")
        return 2
    machine = None
    if args.machine != "none":
        from repro.machines import MACHINES

        machine = MACHINES[args.machine]
    tracer = Tracer()
    solver = GMGSolver(config, tracer=tracer)
    result = solver.solve()
    print(
        f"communication view: {args.size}^3 over {config.num_ranks} ranks "
        f"({args.ranks}), {args.levels} levels, status={result.status}"
    )
    print(exchange_path_line(solver))
    traffic = traffic_matrix(tracer, size=config.num_ranks)
    print()
    print(ascii_matrix(traffic.messages, title="messages (src -> dst)"))
    print(ascii_matrix(traffic.nbytes, title="bytes (src -> dst)"))
    if traffic.total_retransmissions:
        print(
            ascii_matrix(
                traffic.retransmissions, title="retransmissions (src -> dst)"
            )
        )
    by_level = ", ".join(
        f"l{lev}: {int(traffic.level_nbytes[lev].sum())} B "
        f"/ {int(traffic.level_messages[lev].sum())} msg"
        for lev in traffic.levels()
    )
    print(f"per-level traffic: {by_level}")

    print()
    print("per-rank time breakdown (ms):")
    breakdown = rank_time_breakdown(tracer)
    names = sorted({n for b in breakdown.values() for n in b})
    header = "  rank" + "".join(f"  {n:>11}" for n in names) + f"  {'total':>11}"
    print(header)
    for rank, by_name in breakdown.items():
        cells = "".join(f"  {by_name.get(n, 0.0) * 1e3:11.3f}" for n in names)
        print(f"  {rank:4d}{cells}  {sum(by_name.values()) * 1e3:11.3f}")

    print()
    print("per-V-cycle critical path (longest send->recv dependency chain):")
    paths = critical_paths(tracer, machine=machine)
    for p in paths:
        model = f"  model {p.model_s * 1e3:8.3f} ms" if p.model_s is not None else ""
        print(
            f"  vcycle {p.vcycle:2d}: {len(p.steps):3d} spans, "
            f"{p.comm_bytes:9d} B on path, measured {p.duration_s * 1e3:8.3f} ms "
            f"(window {p.window_s * 1e3:8.3f} ms){model}"
        )
    if paths:
        longest = max(paths, key=lambda p: p.duration_s)
        hops = " -> ".join(
            f"r{s.rank}:{s.name}[l{s.level}]" for s in longest.steps[:8]
        )
        more = "" if len(longest.steps) <= 8 else f" -> ... ({len(longest.steps)} total)"
        print(f"  longest (vcycle {longest.vcycle}): {hops}{more}")

    fit = fit_message_model(tracer)
    if fit is not None:
        xs, ts = message_time_samples(tracer)
        print()
        print(
            f"measured send-time fit t = alpha + n/beta: "
            f"alpha={fit.alpha * 1e6:.3g} us, "
            f"beta={fit.beta / 1e9:.3g} GB/s, R^2={fit.r_squared:.3f}"
        )
        resid = ts - np.asarray(fit.time(xs))
        print(
            f"fit residuals: max |r| = {np.abs(resid).max() * 1e6:.3g} us "
            f"over {len(ts)} sends"
        )
        print(
            ascii_plot(
                {"measured": (xs, ts), "fit": (xs, np.asarray(fit.time(xs)))},
                x_label="message bytes",
                y_label="send seconds",
            )
        )
    if args.trace:
        write_chrome_trace(
            tracer,
            args.trace,
            metadata={
                "tool": "repro commviz",
                "global_cells": config.global_cells,
                "num_ranks": config.num_ranks,
                "status": result.status,
            },
        )
        print(
            f"wrote rank-resolved trace to {args.trace} "
            f"(one pid per rank; open in https://ui.perfetto.dev)"
        )
    ok = result.status in ("converged", "max_vcycles")
    ok = ok and all(p.duration_s <= p.window_s for p in paths)
    return 0 if ok else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json
    import os
    import pathlib

    from repro.perf.sweep import SweepConfig, run_sweep

    config = SweepConfig.from_file(args.config)
    quick = args.quick or bool(os.environ.get("REPRO_BENCH_QUICK"))
    n_cells = 1
    for values in config.axes.values():
        n_cells *= len(values)
    print(
        f"sweep '{config.name}': expanding "
        + " x ".join(f"{k}[{len(v)}]" for k, v in config.axes.items())
        + f" -> {n_cells} cells"
        + (" (quick)" if quick else "")
    )
    report = run_sweep(
        config, quick=quick, rounds=args.rounds, progress=print
    )
    print()
    print(report.render())

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"sweep_{config.name}"
    txt_path = out / f"{stem}.txt"
    txt_path.write_text(report.render())
    json_path = pathlib.Path(args.json) if args.json else out / f"{stem}.json"
    with open(json_path, "w") as fh:
        json.dump(report.to_json(), fh, indent=1, sort_keys=True)
    html_path = pathlib.Path(args.html) if args.html else out / f"{stem}.html"
    html_path.write_text(report.to_html())
    print(f"wrote {txt_path}, {json_path}, {html_path}")

    entries = report.ledger_entries()
    if args.update:
        for entry in entries:
            _record_sweep_entry(entry, args.ledger)
        print(
            f"gate the matrix with: repro perfgate --ledger {args.ledger} "
            f"--series 'sweep_{config.name}.*' --noise-scaled"
        )
    if not report.ok:
        bad = [r.cell.label for r in report.cells if not r.ok]
        print(f"sweep FAILED: cells ended badly: {bad}")
        return 1
    return 0


def _series_gate(args, ledger) -> int:
    """Gate the newest entry of every matching series (perfgate --series)."""
    import fnmatch

    from repro.obs.ledger import (
        baseline_from_entries,
        compare_metrics,
        metric_dispersions,
        noise_thresholds,
    )

    patterns = [p.strip() for p in args.series.split(",") if p.strip()]
    names = sorted(
        name
        for name in ledger.benchmarks()
        if any(fnmatch.fnmatch(name, p) for p in patterns)
    )
    if not names:
        print(f"no ledger series match {patterns}")
        return 1
    exit_code = 0
    for name in names:
        entries = ledger.entries(name)
        if len(entries) < args.window + 1:
            print(
                f"{name}: {len(entries)} entries < window+1 "
                f"({args.window + 1}) — not gating"
            )
            continue
        candidate = entries[-1]
        history = entries[:-1][-args.window:]
        metrics = dict(candidate.metrics)
        if args.inject_slowdown:
            factor = 1.0 + args.inject_slowdown / 100.0
            metrics = {k: v * factor for k, v in metrics.items()}
        thresholds = None
        if args.noise_scaled:
            thresholds = noise_thresholds(
                metric_dispersions(history, window=args.window),
                floor=args.threshold,
            )
        result = compare_metrics(
            baseline_from_entries(history),
            metrics,
            name,
            threshold=args.threshold,
            thresholds=thresholds,
        )
        print(result.render())
        if not result.ok and not args.warn_only:
            exit_code = 1
    if args.inject_slowdown:
        print(f"(candidates carried a synthetic "
              f"{args.inject_slowdown:g}% slowdown)")
    if exit_code == 0 and args.warn_only:
        print("(warn-only: regressions reported but not gating)")
    return exit_code


def _list_ledger(args, ledger) -> int:
    """Inventory the ledger for CI logs (perfgate --list)."""
    from repro.obs.ledger import metric_dispersions

    names = ledger.benchmarks()
    if not names:
        print(f"no ledger series under {ledger.root}")
        return 0
    print(
        f"performance ledger at {ledger.root} "
        f"(min-of-{args.window} baselines):"
    )
    print(
        f"  {'series':<44}{'entries':>8}{'metrics':>8}{'noise':>7}"
        f"  baseline   last recorded"
    )
    for name in names:
        entries = ledger.entries(name)
        disp = metric_dispersions(entries, window=args.window)
        rels = sorted(d.rel_iqr for d in disp.values())
        median_rel = rels[len(rels) // 2] if rels else 0.0
        armed = len(entries) >= args.window
        status = "armed" if armed else f"n<{args.window}"
        last = entries[-1].recorded_at or "-" if entries else "-"
        print(
            f"  {name:<44}{len(entries):>8}{len(disp):>8}"
            f"{median_rel * 100:>6.1f}%  {status:<9}  {last}"
        )
    return 0


def _cmd_perfgate(args: argparse.Namespace) -> int:
    from datetime import datetime, timezone

    from repro.obs.ledger import (
        LedgerEntry,
        PerfLedger,
        compare_metrics,
        load_candidate,
        measure_hotpath,
        metric_dispersions,
        noise_thresholds,
    )

    ledger = PerfLedger(args.ledger)
    if args.list:
        return _list_ledger(args, ledger)
    if args.series:
        return _series_gate(args, ledger)
    if args.candidate:
        candidate = load_candidate(args.candidate)
        print(f"candidate: {args.candidate} ({len(candidate.metrics)} metrics)")
    else:
        print(f"measuring hot-path candidate (best of {args.rounds} rounds)...")
        candidate = measure_hotpath(rounds=args.rounds)
    if args.inject_slowdown:
        factor = 1.0 + args.inject_slowdown / 100.0
        candidate = LedgerEntry(
            benchmark=candidate.benchmark,
            metrics={k: v * factor for k, v in candidate.metrics.items()},
            source=candidate.source,
            context={**candidate.context,
                     "injected_slowdown_pct": args.inject_slowdown},
            recorded_at=candidate.recorded_at,
        )
        print(f"injected a synthetic {args.inject_slowdown:g}% slowdown")

    benchmark = candidate.benchmark
    # Gate only against a full min-of-k window: an empty or
    # shorter-than-k history (fresh checkout, truncated file, first
    # runs after a ledger reset) has not absorbed run-to-run noise yet,
    # so it takes the no-baseline path — record-and-exit-0, never an
    # error or a gate against a single noisy sample.
    history = ledger.entries(benchmark)
    exit_code = 0
    if len(history) < args.window:
        print(
            f"no baseline for {benchmark!r} in {ledger.path(benchmark)} — "
            f"{len(history)} recorded entries < min-of-{args.window} window, "
            f"nothing to gate against"
        )
    else:
        baseline = ledger.baseline_metrics(benchmark, window=args.window)
        thresholds = None
        if args.noise_scaled:
            thresholds = noise_thresholds(
                metric_dispersions(history, window=args.window),
                floor=args.threshold,
            )
        result = compare_metrics(
            baseline, candidate.metrics, benchmark,
            threshold=args.threshold, thresholds=thresholds,
        )
        print(result.render())
        if not result.ok:
            exit_code = 0 if args.warn_only else 1
            if args.warn_only:
                print("(warn-only: regressions reported but not gating)")
    if args.update:
        if args.inject_slowdown:
            print("refusing to record a synthetically slowed candidate")
        else:
            candidate.recorded_at = datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            )
            path = ledger.record(candidate)
            print(f"recorded candidate in {path}")
    return exit_code


def _experiment_commands() -> dict:
    from repro.harness import experiments as E
    from repro.harness import reporting as R
    from repro.perf import ai_comparison_rows

    def scaling(fn):
        def run() -> str:
            return "\n".join(
                R.render_scaling(fn(m))
                for m in ("Perlmutter", "Frontier", "Sunspot")
            )

        return run

    return {
        "fig3": lambda: R.render_fig3(E.fig3_time_per_level()),
        "fig4": lambda: R.render_fig4(E.fig4_vs_hpgmg()),
        "table2": lambda: R.render_table2(E.table2_op_breakdown()),
        "fig5": lambda: (
            R.render_fig5(E.fig5_kernel_throughput("applyOp"))
            + R.render_fig5(E.fig5_kernel_throughput("smooth+residual"))
        ),
        "fig6": lambda: R.render_fig6(E.fig6_exchange_bandwidth()),
        "table3": lambda: R.render_portability(
            E.table3_portability_roofline(), "Table III — Phi (Roofline fraction)"
        ),
        "table4": lambda: R.render_table4(ai_comparison_rows()),
        "table5": lambda: R.render_portability(
            E.table5_portability_ai(), "Table V — Phi (theoretical AI fraction)"
        ),
        "fig7": lambda: R.render_fig7(E.fig7_potential_speedup()),
        "fig8": scaling(E.fig8_weak_scaling),
        "fig9": scaling(E.fig9_strong_scaling),
        "ablations": lambda: "\n".join(
            R.render_ablation(E.ablation_optimizations(m))
            for m in ("Perlmutter", "Frontier", "Sunspot")
        ),
    }


def _cmd_experiment(args: argparse.Namespace) -> int:
    commands = _experiment_commands()
    names = list(commands) if args.which == "all" else [args.which]
    for name in names:
        print(commands[name]())
    if args.json:
        from repro.harness.export import export_all

        written = export_all(args.json)
        print(f"wrote {len(written)} JSON series to {args.json}")
    return 0


def _record_sweep_entry(entry, ledger_dir: str) -> None:
    """Stamp and append a sweep's ledger entry (shared by both sweeps)."""
    from datetime import datetime, timezone

    from repro.obs.ledger import PerfLedger

    entry.recorded_at = datetime.now(timezone.utc).isoformat(
        timespec="seconds"
    )
    path = PerfLedger(ledger_dir).record(entry)
    print(f"recorded sweep in {path}")


def _cmd_faultsweep(args: argparse.Namespace) -> int:
    from repro.faults.sweep import (
        fault_sweep,
        render_fault_sweep,
        sweep_ledger_entry,
    )

    machine = None if args.machine == "none" else args.machine
    dims = tuple(int(v) for v in args.ranks.split(","))
    rows = fault_sweep(seed=args.seed, machine_name=machine, rank_dims=dims)
    print(render_fault_sweep(rows, machine))
    if args.update:
        _record_sweep_entry(
            sweep_ledger_entry(rows, args.seed, dims, machine), args.ledger
        )
    # Success = every scenario ended in a structured status and the
    # recoverable ones converged back to the reference solution.
    recoverable = [r for r in rows if r.scenario != "drop-storm"]
    ok = all(r.status == "converged" for r in recoverable) and all(
        r.bit_identical for r in recoverable
    )
    return 0 if ok else 1


def _cmd_chaossweep(args: argparse.Namespace) -> int:
    from repro.faults.chaos import (
        chaos_ledger_entry,
        chaos_passed,
        chaos_sweep,
        render_chaos_sweep,
    )

    dims = tuple(int(v) for v in args.ranks.split(","))
    cycles = tuple(int(v) for v in args.crash_cycles.split(","))
    counts = tuple(int(v) for v in args.crash_counts.split(","))
    intervals = tuple(int(v) for v in args.checkpoint_intervals.split(","))
    rows = chaos_sweep(
        seed=args.seed,
        rank_dims=dims,
        crash_cycles=cycles,
        crash_counts=counts,
        checkpoint_intervals=intervals,
        storm=args.storm,
    )
    print(render_chaos_sweep(rows))
    if args.update:
        _record_sweep_entry(chaos_ledger_entry(rows, args.seed, dims), args.ledger)
    ok = chaos_passed(rows, storm=args.storm)
    if args.storm:
        storm_rows = [r for r in rows if r.scenario == "crash-storm"]
        degraded = all(r.status == "failed_faults" for r in storm_rows)
        print(
            "crash-storm cell "
            + ("degraded to failed_faults as designed" if degraded
               else f"ended {[r.status for r in storm_rows]} — NOT degrading")
        )
        print("storm run: unrecoverable crash present, gate fails by design")
    return 0 if ok else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.harness.validation import render_validation, run_validation

    results = run_validation()
    print(render_validation(results))
    return 0 if all(r.passed for r in results) else 1


def _cmd_autotune(args: argparse.Namespace) -> int:
    from repro.harness.autotune import autotune, render_tuning, sweep_prior
    from repro.machines import MACHINES

    prior = None
    if args.from_ledger:
        prior = sweep_prior(args.from_ledger, prefix=args.prior_prefix)
        if prior:
            measured = ", ".join(
                f"B{b}={ms:.1f}ms" for b, ms in sorted(prior.items())
            )
            print(f"sweep-ledger prior: {measured}")
        else:
            print(
                f"no {args.prior_prefix}* series under {args.from_ledger} "
                "pin a brick_dim; running pure-model"
            )
    machines = list(MACHINES) if args.machine == "all" else [args.machine]
    for name in machines:
        print(render_tuning(autotune(MACHINES[name], prior=prior)))
    return 0


def _loadgen_config(args: argparse.Namespace):
    from repro.service.loadgen import smoke_config

    overrides = {}
    if args.size is not None:
        overrides["global_cells"] = args.size
    if args.levels is not None:
        overrides["num_levels"] = args.levels
    if args.brick is not None:
        overrides["brick_dim"] = args.brick
    return smoke_config(**overrides)


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json

    from repro.obs.ledger import LedgerEntry
    from repro.service.loadgen import run_loadgen

    base = _loadgen_config(args)
    tracer = None
    if args.trace:
        from repro.obs import Tracer

        tracer = Tracer()
    rate = args.rate if args.rate and args.rate > 0 else None
    print(
        f"loadgen: {args.requests} request(s) over {base.global_cells}^3 "
        f"cells, {base.num_levels} levels, {base.brick_dim}^3 bricks, "
        f"capacity {args.capacity}, seed {args.seed}, "
        + (f"open-loop {rate:g}/s" if rate else "closed batch")
        + (f", best of {args.repeats}" if args.repeats > 1 else "")
    )
    report = run_loadgen(
        base,
        num_requests=args.requests,
        capacity=args.capacity,
        seed=args.seed,
        rate_hz=rate,
        baseline=not args.no_baseline,
        repeats=args.repeats,
        tracer=tracer,
    )
    print(f"  solves/sec         {report.solves_per_sec:10.1f}")
    if not args.no_baseline:
        print(f"  sequential/sec     {report.sequential_solves_per_sec:10.1f}")
        print(f"  speedup            {report.speedup:10.2f}x")
    print(f"  p50 latency        {report.metrics['p50_ms']:10.1f} ms")
    print(f"  p95 latency        {report.metrics['p95_ms']:10.1f} ms")
    print(f"  occupancy          {report.occupancy:10.1%}")
    print(f"  cycles run         {report.cycles_run:10d}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_json(), fh, indent=1, sort_keys=True)
        print(f"wrote report to {args.json}")
    if tracer is not None:
        from repro.obs import write_chrome_trace

        write_chrome_trace(
            tracer, args.trace, metadata={"tool": "repro loadgen"}
        )
        print(f"wrote trace to {args.trace}")
    if args.update:
        entry = LedgerEntry(
            benchmark="service.loadgen",
            metrics=dict(report.metrics),
            source="loadgen",
            context=dict(report.context),
        )
        _record_sweep_entry(entry, args.ledger)
        print(
            f"gate the series with: repro perfgate --ledger {args.ledger} "
            f"--series 'service.*' --noise-scaled --warn-only"
        )
    if args.min_speedup is not None and not args.no_baseline:
        if report.speedup < args.min_speedup:
            print(
                f"loadgen FAILED: speedup {report.speedup:.2f}x < "
                f"required {args.min_speedup:g}x"
            )
            return 1
        print(f"speedup {report.speedup:.2f}x >= {args.min_speedup:g}x")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import dataclasses
    import json
    import sys as _sys

    from repro.gmg import SolverConfig
    from repro.service import SolveRequest, SolveService
    from repro.service.loadgen import smoke_config

    if args.requests_file == "-":
        payload = json.load(_sys.stdin)
    else:
        with open(args.requests_file) as fh:
            payload = json.load(fh)
    if isinstance(payload, list):
        payload = {"requests": payload}
    overrides = payload.get("config", {})
    valid = sorted(f.name for f in dataclasses.fields(SolverConfig))
    unknown = sorted(set(overrides) - set(valid))
    if unknown:
        print(
            f"unknown config key {unknown[0]!r}; valid fields: "
            f"{', '.join(valid)}",
            file=_sys.stderr,
        )
        return 2
    base = smoke_config(**overrides)
    requests = [
        SolveRequest(
            config=base,
            amplitude=float(spec.get("amplitude", 1.0)),
            request_id=str(spec.get("request_id", f"req-{k}")),
        )
        for k, spec in enumerate(payload["requests"])
    ]
    if not requests:
        print("no requests in batch", file=_sys.stderr)
        return 1
    service = SolveService(capacity=args.capacity)
    results = service.submit(requests)
    out = {
        "results": [
            {
                "request_id": r.request.request_id,
                "converged": r.converged,
                "num_vcycles": r.num_vcycles,
                "final_residual": r.final_residual,
                "latency_ms": 1e3 * r.latency_s,
                "slot": r.slot,
                "joined_at_cycle": r.joined_at_cycle,
            }
            for r in results
        ],
        "num_cohorts": service.num_cohorts,
    }
    text = json.dumps(out, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(
            f"served {len(results)} request(s) "
            f"({sum(r.converged for r in results)} converged); "
            f"wrote {args.out}"
        )
    else:
        print(text)
    return 0 if all(r.converged for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Brick-based geometric multigrid (SC 2024 reproduction): "
            "functional solves and paper-experiment regeneration."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("-s", "--size", type=int, default=32,
                       help="global cells per dimension (default 32)")
        p.add_argument("-l", "--levels", type=int, default=3,
                       help="multigrid levels (default 3)")
        p.add_argument("-b", "--brick", type=int, default=4,
                       help="brick dimension (default 4)")
        p.add_argument("--smooths", type=int, default=12,
                       help="smooths per level visit (default 12)")
        p.add_argument("--bottom", type=int, default=100,
                       help="bottom-solver iterations (default 100)")
        p.add_argument("-n", "--max-cycles", type=int, default=100,
                       help="maximum cycles (default 100)")
        p.add_argument("--ranks", default="1,1,1",
                       help="rank grid, e.g. 2,2,2 (default 1,1,1)")
        p.add_argument("--smoother", default="jacobi",
                       choices=["jacobi", "gsrb", "sor", "chebyshev"])
        p.add_argument("--bottom-solver", default="relaxation",
                       choices=["relaxation", "cg", "fft"])
        p.add_argument("--cycle", default="V", choices=["V", "W", "F"])
        p.add_argument("--boundary", default="periodic",
                       choices=["periodic", "dirichlet", "neumann"])
        p.add_argument("--no-ca", action="store_true",
                       help="disable communication-avoiding smoothing")
        p.add_argument("--agglomerate-threshold", type=int, default=None,
                       metavar="POINTS",
                       help="merge coarse-level subdomains onto fewer "
                            "ranks once a level drops below POINTS cells "
                            "per rank (bit-identical history, fewer "
                            "messages; default: off)")
        p.add_argument("--trace", metavar="FILE",
                       help="write a Chrome trace-event JSON of the solve "
                            "(open in chrome://tracing or Perfetto)")

    solve = sub.add_parser("solve", help="run the functional GMG solver")
    add_solver_args(solve)
    solve.add_argument("--verify", action="store_true",
                       help="check against the closed-form solution")
    solve.set_defaults(func=_cmd_solve)

    profile = sub.add_parser(
        "profile",
        help="run a traced solve and print the measured per-level "
             "breakdown next to the machine model's predictions",
    )
    add_solver_args(profile)
    profile.add_argument(
        "--machine",
        default="Perlmutter",
        choices=["Perlmutter", "Frontier", "Sunspot", "none"],
        help="machine model for the predicted column ('none' to skip)",
    )
    profile.add_argument("--json", metavar="FILE",
                         help="also write the profile report as JSON")
    profile.add_argument(
        "--min-coverage", type=float, default=95.0, metavar="PCT",
        help="minimum span coverage (percent of the solve span that "
             "instrumented spans must account for) before the command "
             "fails (default 95)",
    )
    profile.set_defaults(func=_cmd_profile)

    commviz = sub.add_parser(
        "commviz",
        help="run a distributed solve and render the rank x rank traffic "
             "matrix, per-rank time breakdown, and per-V-cycle critical "
             "path next to the network model",
    )
    add_solver_args(commviz)
    commviz.set_defaults(ranks="2,2,2")
    commviz.add_argument(
        "--machine",
        default="Perlmutter",
        choices=["Perlmutter", "Frontier", "Sunspot", "none"],
        help="network model pricing the critical path ('none' to skip)",
    )
    commviz.set_defaults(func=_cmd_commviz)

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment.add_argument(
        "which",
        choices=sorted(_choices()) + ["all"],
        help="which paper element to regenerate",
    )
    experiment.add_argument(
        "--json",
        metavar="DIR",
        help="also export every experiment's data series as JSON into DIR",
    )
    experiment.set_defaults(func=_cmd_experiment)

    tune = sub.add_parser(
        "autotune", help="rank brick/ordering/CA/MPI configurations"
    )
    tune.add_argument(
        "machine",
        nargs="?",
        default="all",
        choices=["Perlmutter", "Frontier", "Sunspot", "all"],
    )
    tune.add_argument(
        "--from-ledger", metavar="DIR",
        help="bias the model ranking with measured sweep history from "
             "this ledger directory (e.g. benchmarks/results/ledger)",
    )
    tune.add_argument(
        "--prior-prefix", default="sweep_", metavar="PREFIX",
        help="ledger series prefix harvested for the prior (default sweep_)",
    )
    tune.set_defaults(func=_cmd_autotune)

    perfgate = sub.add_parser(
        "perfgate",
        help="compare a benchmark candidate against the committed "
             "performance ledger; non-zero exit on regression",
    )
    perfgate.add_argument(
        "--ledger", default="benchmarks/results/ledger", metavar="DIR",
        help="ledger directory (default benchmarks/results/ledger)",
    )
    perfgate.add_argument(
        "--candidate", metavar="FILE",
        help="gate this JSON file (ledger entry or bench payload) "
             "instead of measuring the hot path",
    )
    perfgate.add_argument(
        "--rounds", type=int, default=3,
        help="measurement rounds when no --candidate is given (default 3)",
    )
    perfgate.add_argument(
        "--threshold", type=float, default=0.15,
        help="relative slowdown tolerated before a metric counts as "
             "regressed (default 0.15)",
    )
    perfgate.add_argument(
        "--window", type=int, default=3,
        help="min-of-k baseline window over the last k entries (default 3)",
    )
    perfgate.add_argument(
        "--warn-only", action="store_true",
        help="report regressions but always exit 0 (CI advisory mode)",
    )
    perfgate.add_argument(
        "--update", action="store_true",
        help="append the candidate to the ledger after comparing",
    )
    perfgate.add_argument(
        "--inject-slowdown", type=float, default=0.0, metavar="PCT",
        help="scale the candidate's metrics by 1+PCT/100 (gate self-test)",
    )
    perfgate.add_argument(
        "--list", action="store_true",
        help="print every ledger series with entry counts, baseline "
             "status, and measured dispersion, then exit (CI inventory)",
    )
    perfgate.add_argument(
        "--series", metavar="PATTERNS",
        help="gate the newest entry of every series matching the comma-"
             "separated glob patterns (e.g. 'sweep_smoke.*') against "
             "the window of entries before it, instead of measuring "
             "the hot path",
    )
    perfgate.add_argument(
        "--noise-scaled", action="store_true",
        help="scale each metric's threshold by its measured historical "
             "dispersion: a regression must clear "
             "max(threshold, 2 x rel-IQR), not a fixed percentage",
    )
    perfgate.set_defaults(func=_cmd_perfgate)

    sweep = sub.add_parser(
        "sweep",
        help="expand a declarative config matrix (brick x communication "
             "avoiding x agglomeration x machine x scenario), run every "
             "cell with warmup + interleaved rounds, and report "
             "variance-aware statistics with per-axis delta attribution",
    )
    sweep.add_argument(
        "--config", required=True, metavar="FILE",
        help="sweep config (JSON; see benchmarks/sweeps/)",
    )
    sweep.add_argument(
        "--quick", action="store_true",
        help="use the config's quick_rounds (also via REPRO_BENCH_QUICK=1)",
    )
    sweep.add_argument(
        "--rounds", type=int, default=None,
        help="override the config's repetition rounds",
    )
    sweep.add_argument(
        "--out", default="benchmarks/results", metavar="DIR",
        help="directory for the txt/json/html report "
             "(default benchmarks/results)",
    )
    sweep.add_argument(
        "--json", metavar="FILE",
        help="write the JSON report here instead of <out>/sweep_<name>.json",
    )
    sweep.add_argument(
        "--html", metavar="FILE",
        help="write the HTML report here instead of <out>/sweep_<name>.html",
    )
    sweep.add_argument(
        "--ledger", default="benchmarks/results/ledger", metavar="DIR",
        help="ledger directory for --update (default benchmarks/results/ledger)",
    )
    sweep.add_argument(
        "--update", action="store_true",
        help="append every cell's entry to its sweep_<name>.<cell> "
             "ledger series",
    )
    sweep.set_defaults(func=_cmd_sweep)

    faultsweep = sub.add_parser(
        "faultsweep",
        help="inject message/kernel faults and report recovery + overhead",
    )
    faultsweep.add_argument("--seed", type=int, default=2024,
                            help="seed for the random-burst scenario")
    faultsweep.add_argument("--ranks", default="2,1,1",
                            help="rank grid, e.g. 2,2,1 (default 2,1,1)")
    faultsweep.add_argument(
        "--machine",
        default="Perlmutter",
        choices=["Perlmutter", "Frontier", "Sunspot", "none"],
        help="machine pricing the resilience overhead ('none' to skip)",
    )
    faultsweep.add_argument(
        "--ledger", default="benchmarks/results/ledger", metavar="DIR",
        help="ledger directory for --update (default benchmarks/results/ledger)",
    )
    faultsweep.add_argument(
        "--update", action="store_true",
        help="append the sweep's metrics to the resilience ledger",
    )
    faultsweep.set_defaults(func=_cmd_faultsweep)

    chaossweep = sub.add_parser(
        "chaossweep",
        help="seeded rank-crash matrix: buddy restore / communicator "
             "repair, with recovery-SLO ledger output",
    )
    chaossweep.add_argument("--seed", type=int, default=2024,
                            help="seed choosing the crash victims")
    chaossweep.add_argument("--ranks", default="2,2,2",
                            help="rank grid, e.g. 2,2,2 (default 2,2,2)")
    chaossweep.add_argument(
        "--crash-cycles", default="1,3", metavar="LIST",
        help="comma list of V-cycle indices to crash at (default 1,3)",
    )
    chaossweep.add_argument(
        "--crash-counts", default="1,2", metavar="LIST",
        help="comma list of simultaneous crash counts (default 1,2)",
    )
    chaossweep.add_argument(
        "--checkpoint-intervals", default="1,2", metavar="LIST",
        help="comma list of checkpoint intervals to try (default 1,2)",
    )
    chaossweep.add_argument(
        "--ledger", default="benchmarks/results/ledger", metavar="DIR",
        help="ledger directory for --update (default benchmarks/results/ledger)",
    )
    chaossweep.add_argument(
        "--update", action="store_true",
        help="append the run's recovery SLOs to the chaos ledger",
    )
    chaossweep.add_argument(
        "--storm", action="store_true",
        help="add an unrecoverable persistent-crash cell; the gate then "
             "fails by design (inverted self-test)",
    )
    chaossweep.set_defaults(func=_cmd_chaossweep)

    loadgen = sub.add_parser(
        "loadgen",
        help="synthetic open-loop load against the batched solve "
             "service: solves/sec, p50/p95 latency, occupancy, and the "
             "speedup over sequential per-request solves",
    )
    loadgen.add_argument("--requests", type=int, default=8,
                         help="requests in the stream (default 8)")
    loadgen.add_argument("--capacity", type=int, default=8,
                         help="cohort slots per geometry (default 8)")
    loadgen.add_argument("--seed", type=int, default=0,
                         help="stream seed: amplitudes + arrivals (default 0)")
    loadgen.add_argument("--rate", type=float, default=None, metavar="HZ",
                         help="open-loop Poisson arrival rate; omit for a "
                              "closed batch")
    loadgen.add_argument("--repeats", type=int, default=3,
                         help="best-of-N timed passes, both paths "
                              "(default 3)")
    loadgen.add_argument("--size", type=int, default=None,
                         help="global cells per dim (default: smoke "
                              "geometry, 8)")
    loadgen.add_argument("--levels", type=int, default=None,
                         help="multigrid levels (default: smoke geometry, 3)")
    loadgen.add_argument("--brick", type=int, default=None,
                         help="brick dimension (default: smoke geometry, 2)")
    loadgen.add_argument("--no-baseline", action="store_true",
                         help="skip the sequential baseline pass")
    loadgen.add_argument("--min-speedup", type=float, default=None,
                         metavar="X",
                         help="fail unless batched speedup >= X (smoke "
                              "acceptance: 2.0)")
    loadgen.add_argument("--json", metavar="FILE",
                         help="write the full report as JSON")
    loadgen.add_argument("--trace", metavar="FILE",
                         help="write a Chrome trace of the service pass")
    loadgen.add_argument(
        "--ledger", default="benchmarks/results/ledger", metavar="DIR",
        help="ledger directory for --update (default "
             "benchmarks/results/ledger)",
    )
    loadgen.add_argument(
        "--update", action="store_true",
        help="append the run's metrics to the service.loadgen ledger "
             "series (gate with: repro perfgate --series 'service.*')",
    )
    loadgen.set_defaults(func=_cmd_loadgen)

    serve = sub.add_parser(
        "serve",
        help="solve a JSON batch of requests through the multi-tenant "
             "service (file or stdin in, JSON results out)",
    )
    serve.add_argument(
        "requests_file", metavar="FILE",
        help="JSON request batch: a list of {amplitude, request_id} "
             "objects, or {config: {...overrides}, requests: [...]}; "
             "'-' reads stdin",
    )
    serve.add_argument("--capacity", type=int, default=8,
                       help="cohort slots per geometry (default 8)")
    serve.add_argument("--out", metavar="FILE",
                       help="write results JSON here instead of stdout")
    serve.set_defaults(func=_cmd_serve)

    validate = sub.add_parser(
        "validate", help="run the artifact-style self-checks"
    )
    validate.set_defaults(func=_cmd_validate)
    return parser


def _choices() -> list[str]:
    return [
        "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
        "table2", "table3", "table4", "table5", "ablations",
    ]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
