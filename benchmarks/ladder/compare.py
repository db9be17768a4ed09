"""Two ladder result files against the bounds of ``BENCHMARK.json``.

    python -m benchmarks.ladder.compare A.json B.json

``A`` is the parent (or the first set of runs), ``B`` the change (or
the second set); both come from ``python -m benchmarks.ladder --runs N
--out FILE``.  For every end-to-end metric on every workload it prints
the medians, the relative change in the metric's worse direction and
the bound, and marks the pair

* ``BREACH`` — ``B`` is worse than ``A`` by more than the bound;
* ``unresolved`` — the run-to-run spread (interquartile distance over
  the median, the wider of the two files) exceeds the bound, so the
  pair proves nothing — unless every run of ``B`` reads better than
  every run of ``A``;
* ``ok`` otherwise.

Exits non-zero on a breach, or when either file failed its gate.
"""

from __future__ import annotations

import json
import statistics
import sys

from benchmarks.ladder import stats
from benchmarks.ladder.manifest import ROOT


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == 0:
        return 0.0
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def all_better(a_values, b_values, better: str) -> bool:
    """Every run of B reads better than every run of A."""
    if better == "lower":
        return max(b_values) < min(a_values)
    return min(b_values) > max(a_values)


def judge(a_values, b_values, better: str, bound: float) -> dict:
    """Medians, change, spread and verdict of one metric on one workload."""
    a, b = statistics.median(a_values), statistics.median(b_values)
    change = worse_by(a, b, better)
    spreads = [s for s in (stats.spread(a_values), stats.spread(b_values)) if s is not None]
    spread = max(spreads) if spreads else None
    noisy = spread is not None and spread > bound
    if noisy and not all_better(a_values, b_values, better):
        verdict = "unresolved"
    elif change > bound:
        verdict = "BREACH"
    else:
        verdict = "ok"
    return {"a": a, "b": b, "change": change, "spread": spread, "verdict": verdict}


def compare(a: dict, b: dict, spec: dict) -> tuple[list[dict], bool]:
    """Rows for every end-to-end metric x workload, and whether any
    pair breaches its bound."""
    rows, breach = [], False
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            try:
                a_values = a["end_to_end"][workload][name]["values"]
                b_values = b["end_to_end"][workload][name]["values"]
            except KeyError:
                rows.append({"workload": workload, "metric": name, "verdict": "missing"})
                breach = True
                continue
            row = judge(a_values, b_values, metric["better"], metric["bound"])
            row.update(workload=workload, metric=name, bound=metric["bound"],
                       unit=metric["unit"])
            breach |= row["verdict"] == "BREACH"
            rows.append(row)
    return rows, breach


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<18} {'metric':<14} {'A':>11} {'B':>11} "
        f"{'worse by':>9} {'bound':>6} {'spread':>7}  verdict"
    ]
    for row in rows:
        if row["verdict"] == "missing":
            lines.append(f"{row['workload']:<18} {row['metric']:<14} missing from a file")
            continue
        spread = "n/a" if row["spread"] is None else f"{row['spread']:.1%}"
        lines.append(
            f"{row['workload']:<18} {row['metric']:<14} {row['a']:>11.5g} "
            f"{row['b']:>11.5g} {row['change']:>+9.1%} {row['bound']:>6.0%} "
            f"{spread:>7}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    files = []
    for path in argv:
        with open(path) as fh:
            files.append(json.load(fh))
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    rows, breach = compare(files[0], files[1], spec)
    print(render(rows))
    failed_gate = [p for p, f in zip(argv, files) if not f.get("correct", False)]
    for path in failed_gate:
        print(f"{path}: the correctness gate failed")
    return 1 if breach or failed_gate else 0


if __name__ == "__main__":
    sys.exit(main())
