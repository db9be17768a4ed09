"""Command-line interface: ``python -m repro <command>``.

Mirrors the paper artifact's runner (``<exe> -s 512,512,512 -I 10 -l 6
-n 20``): a ``solve`` command for the functional solver plus one
command per paper experiment, printing the same rows the paper
reports.  ``all`` regenerates everything.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from functools import partial

import numpy as np


def _int_list(text: str, least: int | None = None) -> tuple[int, ...]:
    """argparse ``type=``: a non-empty comma-separated list of integers,
    each at least ``least`` when given."""
    try:
        values = tuple(int(v) for v in text.split(","))
    except ValueError:
        values = ()
    if not values or (least is not None and min(values) < least):
        at_least = "" if least is None else f" >= {least}"
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers{at_least}, got {text!r}"
        )
    return values


def _positive_int(text: str) -> int:
    """argparse ``type=``: one positive integer (a count)."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _rank_dims(text: str) -> tuple[int, int, int]:
    """argparse ``type=``: exactly three positive comma-separated integers."""
    dims = _int_list(text)
    if len(dims) != 3 or min(dims) < 1:
        raise argparse.ArgumentTypeError(
            f"expected three positive comma-separated integers, got {text!r}"
        )
    return dims


class _Refused(Exception):
    """A command refusing its input: :func:`main` prints ``<command>:
    <reason>`` on stderr and exits 2."""


@contextmanager
def _refusing():
    """A ``ValueError`` raised while a command turns its arguments into
    what it runs is that command refusing them."""
    try:
        yield
    except ValueError as exc:
        raise _Refused(exc) from None


def _solver_config(args: argparse.Namespace):
    from repro.gmg import SolverConfig

    with _refusing():
        return SolverConfig(
            global_cells=args.size,
            num_levels=args.levels,
            brick_dim=args.brick,
            max_smooths=args.smooths,
            bottom_smooths=args.bottom,
            max_vcycles=args.max_cycles,
            rank_dims=args.ranks,
            smoother=args.smoother,
            bottom_solver=args.bottom_solver,
            cycle=args.cycle,
            boundary=args.boundary,
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
    if solver.agglomeration is not None:
        print("agglomeration plan:")
        for line in solver.agglomeration.describe().splitlines():
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
        from repro.obs.profile import exchange_path_line

        print(native.describe())
        if paths := exchange_path_line(solver):
            print(paths)
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
    from repro.harness.ascii_plot import ascii_matrix
    from repro.obs import (
        Tracer,
        measured_vs_model_rows,
        render_measured_vs_model,
        traffic_matrix,
        write_chrome_trace,
    )
    from repro.obs.profile import exchange_path_line

    config = _solver_config(args)
    if config.num_ranks < 2:
        raise _Refused("needs a distributed solve; pass e.g. --ranks 2,2,2")
    machine_name = machine = None
    if args.machine != "none" and config.boundary == "periodic":
        from repro.machines import MACHINES

        machine_name, machine = args.machine, MACHINES[args.machine]
    tracer = Tracer()
    solver = GMGSolver(config, tracer=tracer)
    result = solver.solve()
    print(
        f"communication view: {args.size}^3 over {config.num_ranks} ranks "
        f"({','.join(map(str, args.ranks))}), {args.levels} levels, "
        f"status={result.status}"
    )
    if paths := exchange_path_line(solver):
        print(paths)
    traffic = traffic_matrix(solver.comm)
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
    print("ghost exchange per level, as the solve ran it:")
    rows = measured_vs_model_rows(
        tracer, config, machine, max(result.num_vcycles, 1)
    )
    print(
        render_measured_vs_model(
            [r for r in rows if r["op"] == "exchange"], machine_name
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
            "(one pid per rank with spans of its own; open in "
            "https://ui.perfetto.dev)"
        )
    return 0 if result.status in ("converged", "max_vcycles") else 1


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


def _scenario_table(args, make_scenarios, title, columns, footer, machine=None) -> int:
    """Run a fault scenario list, print its table and footer, gate on
    every row; the list may refuse ``--ranks``."""
    from repro.faults.scenarios import render, run

    with _refusing():
        scenarios = make_scenarios()
    rows = run(scenarios, machine)
    print(render(rows, title, columns), *footer(rows), sep="\n")
    return 0 if all(r.passed for r in rows) else 1


def _cmd_faultsweep(args: argparse.Namespace) -> int:
    from repro.faults.scenarios import FAULT_COLUMNS, battery
    from repro.machines import MACHINES

    machine = None if args.machine == "none" else MACHINES[args.machine]
    title = "Fault sweep — detect / retry / rollback / degrade"
    if machine is not None:
        title += f" (overhead modelled on {args.machine})"

    def footer(rows):
        degraded = sum(r.status == "failed_faults" for r in rows)
        recovered = sum(r.status == "converged" for r in rows)
        yield (f"recovered {recovered}/{len(rows)} scenarios; "
               f"degraded gracefully in {degraded}")

    return _scenario_table(
        args, lambda: battery(args.seed, args.ranks), title, FAULT_COLUMNS,
        footer, machine,
    )


def _cmd_chaossweep(args: argparse.Namespace) -> int:
    from repro.faults.scenarios import CRASH_COLUMNS, crash_matrix

    def footer(rows):
        cells = [r for r in rows if r.scenario != "crash-storm"]
        recovered = sum(r.status == "converged" for r in cells)
        yield f"recovered {recovered}/{len(cells)} matrix cells to reference tolerance"
        if args.storm:
            status = rows[-1].status
            yield "crash-storm cell " + (
                "degraded to failed_faults as designed" if status == "failed_faults"
                else f"ended {status} — NOT degrading"
            )
            yield "storm run: unrecoverable crash present, gate fails by design"

    return _scenario_table(
        args,
        lambda: crash_matrix(
            args.seed, args.ranks, args.crash_cycles, args.crash_counts,
            args.checkpoint_intervals, args.storm,
        ),
        "Chaos sweep — crash / repair / restore / converge", CRASH_COLUMNS, footer,
    )


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.harness.validation import render_validation, run_validation

    results = run_validation()
    print(render_validation(results))
    return 0 if all(r.passed for r in results) else 1


def _loadgen_config(args: argparse.Namespace):
    from repro.service.loadgen import smoke_config

    overrides = {}
    if args.size is not None:
        overrides["global_cells"] = args.size
    if args.levels is not None:
        overrides["num_levels"] = args.levels
    if args.brick is not None:
        overrides["brick_dim"] = args.brick
    with _refusing():
        return smoke_config(**overrides)


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json

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
    try:
        base = smoke_config(**overrides)
        requests = [
            SolveRequest(
                config=base,
                amplitude=float(spec.get("amplitude", 1.0)),
                request_id=str(spec.get("request_id", f"req-{k}")),
            )
            for k, spec in enumerate(payload["requests"])
        ]
    except (TypeError, ValueError) as exc:
        print(f"invalid request batch: {exc}", file=_sys.stderr)
        return 2
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
        p.add_argument("--ranks", type=_rank_dims, default="1,1,1",
                       help="rank grid, e.g. 2,2,2 (default 1,1,1)")
        p.add_argument("--smoother", default="jacobi",
                       choices=["jacobi", "gsrb", "sor", "chebyshev"])
        p.add_argument("--bottom-solver", default="relaxation",
                       choices=["relaxation", "cg", "fft"])
        p.add_argument("--cycle", default="V", choices=["V", "W", "F"])
        p.add_argument("--boundary", default="periodic",
                       choices=["periodic", "dirichlet", "neumann"])
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
             "matrices and each level's measured exchange time next to "
             "the machine model's",
    )
    add_solver_args(commviz)
    commviz.set_defaults(ranks="2,2,2")
    commviz.add_argument(
        "--machine",
        default="Perlmutter",
        choices=["Perlmutter", "Frontier", "Sunspot", "none"],
        help="machine model pricing each level's exchange ('none' to skip)",
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

    faultsweep = sub.add_parser(
        "faultsweep",
        help="inject message/kernel faults and report recovery + overhead",
    )
    faultsweep.add_argument("--seed", type=int, default=2024,
                            help="seed for the random-burst scenario")
    faultsweep.add_argument("--ranks", type=_rank_dims, default="2,1,1",
                            help="rank grid, e.g. 2,2,1 (default 2,1,1)")
    faultsweep.add_argument(
        "--machine",
        default="Perlmutter",
        choices=["Perlmutter", "Frontier", "Sunspot", "none"],
        help="machine pricing the resilience overhead ('none' to skip)",
    )
    faultsweep.set_defaults(func=_cmd_faultsweep)

    chaossweep = sub.add_parser(
        "chaossweep",
        help="seeded rank-crash matrix: buddy restore / communicator repair",
    )
    chaossweep.add_argument("--seed", type=int, default=2024,
                            help="seed choosing the crash victims")
    chaossweep.add_argument("--ranks", type=_rank_dims, default="2,2,2",
                            help="rank grid, e.g. 2,2,2 (default 2,2,2)")
    chaossweep.add_argument(
        "--crash-cycles", type=partial(_int_list, least=0), default="1,3", metavar="LIST",
        help="comma list of V-cycle indices to crash at (default 1,3)",
    )
    chaossweep.add_argument(
        "--crash-counts", type=partial(_int_list, least=1), default="1,2", metavar="LIST",
        help="comma list of simultaneous crash counts (default 1,2)",
    )
    chaossweep.add_argument(
        "--checkpoint-intervals", type=partial(_int_list, least=1), default="1,2", metavar="LIST",
        help="comma list of checkpoint intervals to try (default 1,2)",
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
    loadgen.add_argument("--requests", type=_positive_int, default=8,
                         help="requests in the stream (default 8)")
    loadgen.add_argument("--capacity", type=_positive_int, default=8,
                         help="cohort slots per geometry (default 8)")
    loadgen.add_argument("--seed", type=int, default=0,
                         help="stream seed: amplitudes + arrivals (default 0)")
    loadgen.add_argument("--rate", type=float, default=None, metavar="HZ",
                         help="open-loop Poisson arrival rate; omit for a "
                              "closed batch")
    loadgen.add_argument("--repeats", type=_positive_int, default=3,
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
    serve.add_argument("--capacity", type=_positive_int, default=8,
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
    try:
        return args.func(args)
    except _Refused as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
