"""Persistent performance ledger with noise-aware regression gating.

Benchmark runs come and go; the repo's perf trajectory should not.  A
:class:`PerfLedger` is an append-only store of schema-versioned JSONL
entries — one line per benchmark run — under
``benchmarks/results/ledger/``, so committed history accumulates across
PRs and any checkout can ask "is this candidate slower than what we
have recorded?".

Entries are flat ``{metric_name: value}`` maps where every value is a
wallclock measure (lower is better): the nested benchmark payloads
(``BENCH_pr2.json``'s ``end_to_end_ms.*`` / ``micro.*.*``) and
``repro profile`` reports are flattened on ingest.  Comparison is
noise-aware in two ways:

* the baseline for each metric is the **min over the last k entries**
  (min-of-k): the fastest observed time is the least noisy estimate of
  what the machine can do, and a window keeps one ancient outlier from
  gating forever — and the min is **robust**: window values flagged by
  the MAD outlier test (:func:`repro.perf.stats.mad_outliers`) are
  excluded, so one corrupt or freak-fast entry cannot set an
  impossible bar;
* a candidate only *regresses* when it exceeds the baseline by a
  **relative threshold** (default 15%), absorbing run-to-run jitter;
* with :func:`metric_dispersions` / :func:`noise_thresholds` the
  threshold becomes **noise-scaled**: each metric's tolerated slowdown
  is ``max(floor, scale * rel_IQR)`` measured from its own history, so
  a regression must clear the series' measured noise floor rather than
  a fixed percentage — quiet metrics gate tightly, noisy ones do not
  flake.

``python -m repro perfgate`` wraps this into an exit code: non-zero on
regression (unless ``--warn-only``), zero on a clean run — the CI
perf-gate job and local pre-merge checks share the same path.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

#: bump when the entry layout changes; readers reject unknown versions
LEDGER_SCHEMA_VERSION = 1

#: default relative slowdown tolerated before a metric counts as regressed
DEFAULT_THRESHOLD = 0.15

#: default min-of-k window for the per-metric baseline
DEFAULT_WINDOW = 3

#: default multiplier on a metric's historical rel-IQR when the gate
#: runs noise-scaled: the tolerated slowdown is
#: ``max(floor, NOISE_SCALE * rel_iqr)``
NOISE_SCALE = 2.0


@dataclass
class LedgerEntry:
    """One benchmark run: flat lower-is-better metrics plus context.

    ``metrics`` maps dotted metric names (``end_to_end_ms.full``,
    ``micro.fused_vs_unfused_us.fused_engine``) to wallclock values;
    ``context`` carries the non-gated run description (problem size,
    rounds, quick flag, machine).  ``recorded_at`` is an ISO timestamp,
    empty for deterministic test entries.
    """

    benchmark: str
    metrics: dict[str, float]
    source: str = "bench"
    context: dict = field(default_factory=dict)
    recorded_at: str = ""
    schema: int = LEDGER_SCHEMA_VERSION

    def to_json(self) -> dict:
        return {
            "schema": self.schema,
            "benchmark": self.benchmark,
            "source": self.source,
            "recorded_at": self.recorded_at,
            "context": self.context,
            "metrics": self.metrics,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LedgerEntry":
        schema = obj.get("schema")
        if schema != LEDGER_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported ledger schema {schema!r} "
                f"(this reader understands {LEDGER_SCHEMA_VERSION})"
            )
        if not obj.get("benchmark") or not isinstance(obj.get("metrics"), dict):
            raise ValueError("ledger entry needs 'benchmark' and 'metrics'")
        metrics = {}
        for name, value in obj["metrics"].items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"metric {name!r} is not numeric: {value!r}")
            metrics[str(name)] = float(value)
        return cls(
            benchmark=str(obj["benchmark"]),
            metrics=metrics,
            source=str(obj.get("source", "bench")),
            context=dict(obj.get("context", {})),
            recorded_at=str(obj.get("recorded_at", "")),
            schema=int(schema),
        )


class PerfLedger:
    """Append-only JSONL store, one file per benchmark name."""

    def __init__(self, root) -> None:
        self.root = Path(root)

    def path(self, benchmark: str) -> Path:
        return self.root / f"{benchmark}.jsonl"

    def record(self, entry: LedgerEntry) -> Path:
        """Append one entry; creates the ledger directory on first use."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(entry.benchmark)
        with open(path, "a") as fh:
            fh.write(json.dumps(entry.to_json(), sort_keys=True) + "\n")
        return path

    def entries(self, benchmark: str) -> list[LedgerEntry]:
        """All recorded entries for a benchmark, oldest first."""
        path = self.path(benchmark)
        if not path.exists():
            return []
        out = []
        with open(path) as fh:
            for k, line in enumerate(fh):
                line = line.strip()
                if not line:
                    continue
                try:
                    out.append(LedgerEntry.from_json(json.loads(line)))
                except (json.JSONDecodeError, ValueError) as exc:
                    raise ValueError(f"{path}:{k + 1}: {exc}") from exc
        return out

    def benchmarks(self) -> list[str]:
        """Benchmark names with a ledger file, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("*.jsonl"))

    def baseline_metrics(
        self,
        benchmark: str,
        window: int = DEFAULT_WINDOW,
        robust: bool = True,
    ) -> dict[str, float]:
        """Per-metric min over the last ``window`` entries (min-of-k).

        With ``robust`` (the default) the min skips window values the
        MAD test flags as outliers, so one corrupt entry — a truncated
        run that recorded 5 ms against a 100 ms series — cannot poison
        the baseline and gate every honest candidate as a regression.
        """
        recent = self.entries(benchmark)[-max(window, 1):]
        return baseline_from_entries(recent, robust=robust)


def baseline_from_entries(
    entries: list[LedgerEntry], robust: bool = True
) -> dict[str, float]:
    """Min-of-k over already-selected entries (see ``baseline_metrics``)."""
    series: dict[str, list[float]] = {}
    for entry in entries:
        for name, value in entry.metrics.items():
            series.setdefault(name, []).append(value)
    best: dict[str, float] = {}
    for name, values in series.items():
        kept = values
        if robust:
            from repro.perf.stats import mad_outliers

            mask = mad_outliers(values)
            kept = [v for v, bad in zip(values, mask) if not bad] or values
        best[name] = min(kept)
    return best


@dataclass(frozen=True)
class MetricDispersion:
    """One metric's spread across a ledger window (cross-run noise)."""

    name: str
    count: int
    median: float
    iqr: float
    rel_iqr: float
    #: values the MAD test flagged — excluded from the robust baseline
    outliers: tuple[float, ...] = ()


def metric_dispersions(
    entries: list[LedgerEntry], window: int = DEFAULT_WINDOW
) -> dict[str, MetricDispersion]:
    """Per-metric dispersion over the last ``window`` entries.

    The rel-IQR here is the measured run-to-run noise floor of each
    metric — what :func:`noise_thresholds` scales the gate by.
    """
    recent = entries[-max(window, 1):]
    series: dict[str, list[float]] = {}
    for entry in recent:
        for name, value in entry.metrics.items():
            series.setdefault(name, []).append(value)
    out: dict[str, MetricDispersion] = {}
    for name, values in series.items():
        from repro.perf.stats import SampleStats, mad_outliers

        stats = SampleStats.from_samples(values)
        flagged = tuple(
            v for v, bad in zip(values, mad_outliers(values)) if bad
        )
        out[name] = MetricDispersion(
            name=name,
            count=len(values),
            median=stats.median,
            iqr=stats.iqr,
            rel_iqr=stats.rel_iqr,
            outliers=flagged,
        )
    return out


def noise_thresholds(
    dispersions: dict[str, MetricDispersion],
    floor: float = DEFAULT_THRESHOLD,
    scale: float = NOISE_SCALE,
) -> dict[str, float]:
    """Per-metric tolerated slowdown: ``max(floor, scale * rel_iqr)``.

    A metric whose history is quiet gates at the floor; a noisy one
    gets a proportionally wider band, so the gate's false-positive
    rate stays flat across metrics instead of tracking their jitter.
    """
    return {
        name: max(floor, scale * d.rel_iqr)
        for name, d in dispersions.items()
    }


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MetricComparison:
    """One metric's candidate-vs-baseline verdict."""

    name: str
    baseline: float | None
    candidate: float | None
    ratio: float | None  # candidate / baseline
    status: str  # ok | regression | improvement | new | missing
    #: the tolerated relative slowdown this row was judged against
    #: (differs per metric when the gate runs noise-scaled)
    threshold: float | None = None


@dataclass
class ComparisonResult:
    """The gate's verdict over every metric."""

    benchmark: str
    threshold: float
    rows: list[MetricComparison]
    #: True when per-metric noise-scaled thresholds were applied
    noise_scaled: bool = False

    @property
    def regressions(self) -> list[MetricComparison]:
        return [r for r in self.rows if r.status == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        mode = (
            f"noise-scaled thresholds, floor {self.threshold:.0%}"
            if self.noise_scaled
            else f"threshold {self.threshold:.0%}"
        )
        lines = [
            f"perf gate: {self.benchmark} ({mode}, min-of-k baseline)",
            f"  {'metric':<44}{'baseline':>12}{'candidate':>12}"
            f"{'ratio':>8}{'thr':>7}  status",
        ]
        for r in self.rows:
            base = f"{r.baseline:.2f}" if r.baseline is not None else "-"
            cand = f"{r.candidate:.2f}" if r.candidate is not None else "-"
            ratio = f"{r.ratio:.3f}" if r.ratio is not None else "-"
            thr = f"{r.threshold:.0%}" if r.threshold is not None else "-"
            lines.append(
                f"  {r.name:<44}{base:>12}{cand:>12}{ratio:>8}{thr:>7}"
                f"  {r.status}"
            )
        verdict = (
            "OK — no regressions"
            if self.ok
            else f"REGRESSION in {len(self.regressions)} metric(s)"
        )
        lines.append(f"  => {verdict}")
        return "\n".join(lines)


def compare_metrics(
    baseline: dict[str, float],
    candidate: dict[str, float],
    benchmark: str = "",
    threshold: float = DEFAULT_THRESHOLD,
    thresholds: dict[str, float] | None = None,
) -> ComparisonResult:
    """Gate ``candidate`` against ``baseline`` (both lower-is-better).

    A metric regresses when ``candidate > baseline * (1 + threshold)``
    and improves when ``candidate < baseline * (1 - threshold)``;
    in between is ``ok`` (noise).  Metrics only one side has are
    reported (``new`` / ``missing``) but never gate.

    ``thresholds`` (typically from :func:`noise_thresholds`) overrides
    the flat threshold per metric, but never below it: the flat value
    acts as the floor, so a zero-dispersion history cannot produce a
    hair-trigger gate.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative: {threshold}")
    rows = []
    for name in sorted(set(baseline) | set(candidate)):
        b, c = baseline.get(name), candidate.get(name)
        if b is None:
            rows.append(MetricComparison(name, None, c, None, "new"))
            continue
        if c is None:
            rows.append(MetricComparison(name, b, None, None, "missing"))
            continue
        thr = threshold
        if thresholds is not None:
            thr = max(threshold, thresholds.get(name, threshold))
        ratio = c / b if b > 0 else float("inf") if c > 0 else 1.0
        if ratio > 1.0 + thr:
            status = "regression"
        elif ratio < 1.0 - thr:
            status = "improvement"
        else:
            status = "ok"
        rows.append(MetricComparison(name, b, c, ratio, status, thr))
    return ComparisonResult(
        benchmark=benchmark,
        threshold=threshold,
        rows=rows,
        noise_scaled=thresholds is not None,
    )


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------
def _flatten(prefix: str, obj, out: dict[str, float]) -> None:
    if isinstance(obj, dict):
        for key, value in obj.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), value, out)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[prefix] = float(obj)


def entry_from_bench_payload(
    payload: dict, source: str = "bench", recorded_at: str = ""
) -> LedgerEntry:
    """Flatten a benchmark payload (the ``BENCH_pr2.json`` shape).

    ``end_to_end_ms.*`` and ``micro.*.*`` become dotted metrics;
    ``speedup`` is derived (higher-is-better) so it goes to context,
    alongside the problem description and round counts.
    """
    if "benchmark" not in payload:
        raise ValueError("bench payload needs a 'benchmark' name")
    metrics: dict[str, float] = {}
    for section in ("end_to_end_ms", "micro"):
        if section in payload:
            _flatten(section, payload[section], metrics)
    if not metrics:
        raise ValueError("bench payload has no timing sections to ingest")
    context = {
        key: payload[key]
        for key in ("problem", "rounds", "quick", "speedup",
                    "bit_identical_histories")
        if key in payload
    }
    return LedgerEntry(
        benchmark=str(payload["benchmark"]),
        metrics=metrics,
        source=source,
        context=context,
        recorded_at=recorded_at,
    )


def entry_from_profile(report, recorded_at: str = "") -> LedgerEntry:
    """Ingest a :class:`~repro.obs.profile.ProfileReport`.

    Wallclock plus every per-level per-op measured total become
    metrics; coverage and the machine-model column stay in context
    (coverage is higher-is-better and model times are predictions, so
    neither belongs in a lower-is-better gate).
    """
    cfg = report.config
    metrics = {"wallclock_ms": report.wallclock_s * 1e3}
    for row in report.rows:
        metrics[f"l{row['level']}.{row['op']}_ms"] = (
            row["measured_total_s"] * 1e3
        )
    return LedgerEntry(
        benchmark="profile_solve",
        metrics=metrics,
        source="profile",
        context={
            "global_cells": cfg.global_cells,
            "num_levels": cfg.num_levels,
            "num_ranks": cfg.num_ranks,
            "coverage": report.coverage,
            "machine": report.machine_name,
            "status": report.result.status,
        },
        recorded_at=recorded_at,
    )


def measure_hotpath(rounds: int = 3, quick: bool | None = None) -> LedgerEntry:
    """Measure the tier-1 end-to-end hot path as a gate candidate.

    Best-of-``rounds`` wallclock of constructing and solving the tier-1
    problem, recorded as ``end_to_end_ms.full`` — the name the
    committed ``kernel_hotpath`` series has carried since it compared
    engine modes, kept so the series stays one comparable trajectory
    (its ``end_to_end_ms.seed`` column simply ends; a metric the
    candidate lacks never gates).
    """
    import time

    from repro.gmg import GMGSolver, SolverConfig

    if quick is None:
        quick = bool(os.environ.get("REPRO_BENCH_QUICK"))
    rounds = max(1, rounds if not quick else min(rounds, 2))
    tier1 = dict(global_cells=32, num_levels=3, brick_dim=4)
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        GMGSolver(SolverConfig(**tier1)).solve()
        best = min(best, time.perf_counter() - t0)
    return LedgerEntry(
        benchmark="kernel_hotpath",
        metrics={"end_to_end_ms.full": round(best * 1e3, 2)},
        source="perfgate",
        context={"problem": tier1, "rounds": rounds, "quick": quick},
    )


def load_candidate(path) -> LedgerEntry:
    """Load a candidate from disk: a ledger entry or a bench payload.

    Accepts either the schema-versioned entry form (``BENCH_pr4.json``)
    or the raw nested bench payload (``BENCH_pr2.json``), making
    backfill a one-command affair.
    """
    with open(path) as fh:
        obj = json.load(fh)
    if "schema" in obj:
        return LedgerEntry.from_json(obj)
    return entry_from_bench_payload(obj)
