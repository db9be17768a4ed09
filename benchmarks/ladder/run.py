"""The one command of the benchmark ladder.

One workload, as the benchmark driver runs it::

    python3 benchmarks/ladder/run.py --workload exchange_8rank_32 \\
        --seed 3 --seconds 16 --trace 0

prints every end-to-end metric by name with its unit (``--trace 1``:
every per-layer metric), checks every result it timed, and ends with
one JSON line ``{"correct", "attempted", "failed", "metrics"}``.

Without ``--workload`` it runs all five, each in its own process so
one workload's memory never shows in another's ``peak_rss_mb``::

    PYTHONPATH=src python -m benchmarks.ladder --traced --out ladder.json

Exit status is non-zero when the correctness gate fails.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[2]


def bootstrap() -> None:
    """One thread, and ``src``/the repository root importable.

    Runs before anything imports NumPy: BLAS/OpenMP pools read their
    thread count when they load.
    """
    from_env = ("OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPENBLAS_NUM_THREADS")
    if "numpy" in sys.modules and any(os.environ.get(v) != "1" for v in from_env):
        print("ladder: NumPy loaded before threads were pinned", file=sys.stderr)
    for variable in from_env:
        os.environ[variable] = "1"
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"ladder: no src/repro under {ROOT}; nothing to measure")
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ladder", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measuring time per run (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: the traced run, printing per-layer metrics",
    )
    parser.add_argument(
        "--traced", action="store_true",
        help="with no --workload: also run every workload traced",
    )
    parser.add_argument(
        "--runs", type=int, default=1,
        help="with no --workload: untraced runs per workload, at "
        "consecutive seeds (compare judges spread from four up)",
    )
    parser.add_argument("--out", help="write the full report (JSON) here")
    parser.add_argument("--spans", help="--trace 1: write every span here")
    parser.add_argument("--child", choices=("setup",), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_child(*arguments: str) -> dict:
    """Run this command in a fresh process; its last line, parsed."""
    done = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()), *arguments],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(
            f"ladder child {arguments} printed nothing "
            f"(exit {done.returncode}): {done.stderr[-2000:]}"
        )
    return {"exit": done.returncode, "stdout": done.stdout, **json.loads(lines[-1])}


def setup_runner(name: str, seed: int) -> dict:
    return run_child("--workload", name, "--seed", str(seed), "--child", "setup")


def metric_table(section: list, values: dict, reasons=lambda name: None) -> tuple[dict, list]:
    """The final-line metrics and the printable rows of one section.

    A metric with no measurement reads 0 on the final line (the driver
    wants a number for every name); the row says why.
    """
    metrics, rows = {}, []
    for entry in section:
        name, unit = entry["name"], entry["unit"]
        value = values.get(name)
        metrics[name] = {"value": 0.0 if value is None else value, "unit": unit}
        note = ""
        if value is None:
            note = reasons(name) or "not exercised by this workload"
        rows.append((name, value, unit, note))
    return metrics, rows


def print_rows(title: str, rows: list) -> None:
    print(f"== {title}")
    width = max(len(name) for name, *_ in rows)
    for name, value, unit, note in rows:
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:<{width}}  {shown:>12} {unit:<6} {note}".rstrip())


def run_one(args, spec: dict) -> int:
    from benchmarks.ladder import manifest

    name, seed, seconds = args.workload, args.seed, args.seconds
    report: dict = {
        "manifest": manifest.collect(seed, seconds, workload=name, traced=bool(args.trace)),
    }
    if args.trace:
        from benchmarks.ladder import layers

        outcome = layers.run_traced(name, seed, seconds)
        found = outcome["layers"]
        metrics, rows = metric_table(spec["per_layer"], found.values, found.reason_for)
        unknown = sorted(set(found.values) - set(metrics))
        report.update(notes=found.notes, unavailable=found.reasons, unlisted=unknown)
        if args.spans and found.tracer is not None:
            found.tracer.dump(args.spans)
        title = f"{name} per-layer (traced run, seed {seed})"
    else:
        from benchmarks.ladder import workloads

        outcome = workloads.run_untraced(name, seed, seconds, setup_runner)
        metrics, rows = metric_table(spec["end_to_end"], outcome["values"])
        rows = [
            (n, v, u, _summary_note(outcome["summaries"].get(n)))
            for n, v, u, _ in rows
        ]
        report.update(summaries=outcome["summaries"], detail=outcome["detail"])
        title = f"{name} end-to-end (seed {seed}, {seconds:g} s)"
    gate = outcome["gate"]
    print_rows(title, rows)
    print(
        f"gate: {gate.attempted} operations, {gate.failed} failed "
        f"(failed_frac {gate.failed / max(gate.attempted, 1):.4g})"
    )
    for line in gate.reasons[:20]:
        print(f"  FAILED {line}")
    for line in gate.skipped:
        print(f"  skipped {line}")
    result = {
        "correct": gate.correct,
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed,
        "metrics": metrics,
    }
    report.update(result, gate_failures=gate.reasons, gate_skipped=gate.skipped)
    if args.out:
        # after every measurement: the calibration's arrays must not
        # show in peak_rss_mb
        from benchmarks.ladder import layers

        report["manifest"]["calibration"] = layers.host_calibration()
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    print(json.dumps(result))
    return 0 if gate.correct else 1


def _summary_note(summary: dict | None) -> str:
    if summary is None:
        return ""
    return (
        f"q1 {summary['q1']:.4g} q3 {summary['q3']:.4g} "
        f"min {summary['min']:.4g} max {summary['max']:.4g} n {summary['n']}"
    )


def run_all(args, spec: dict) -> int:
    """Every workload, each run in a process of its own."""
    from benchmarks.ladder import manifest

    names = [w["name"] for w in spec["workloads"]]
    combined: dict = {
        "manifest": manifest.collect(args.seed, args.seconds, runs=args.runs),
        "end_to_end": {}, "per_layer": {}, "runs": [],
    }
    correct, attempted, failed = True, 0, 0
    flat: dict = {}
    with tempfile.TemporaryDirectory(prefix=".ladder-", dir=ROOT) as scratch:
        for name in names:
            plans = [(0, args.seed + k) for k in range(args.runs)]
            if args.traced:
                plans.append((1, args.seed))
            for traced, seed in plans:
                out = os.path.join(scratch, f"{name}-{traced}-{seed}.json")
                child = run_child(
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(traced),
                    "--out", out,
                )
                print("\n".join(child["stdout"].strip().splitlines()[:-1]))
                with open(out) as fh:
                    combined["runs"].append(json.load(fh))
                correct &= child["correct"] and child["exit"] == 0
                attempted += child["attempted"]
                failed += child["failed"]
                section = combined["per_layer" if traced else "end_to_end"]
                for metric, entry in child["metrics"].items():
                    row = section.setdefault(name, {}).setdefault(
                        metric, {"unit": entry["unit"], "values": []}
                    )
                    row["values"].append(entry["value"])
                    if not traced:
                        flat[f"{name}.{metric}"] = entry
    combined.update(correct=correct, attempted=attempted, failed=failed)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(combined, fh, indent=1)
    print(json.dumps(
        {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
         "metrics": flat}
    ))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse(argv)
    bootstrap()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        raise SystemExit(f"ladder: unknown workload {args.workload!r}; choose from {names}")
    if args.child == "setup":
        from benchmarks.ladder import workloads

        print(json.dumps(workloads.setup_once(args.workload, args.seed)))
        return 0
    if args.workload is None:
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
