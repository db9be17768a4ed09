"""Per-level, per-operation aggregation of measured spans.

Turns a solve trace into the paper's breakdown rows —
``level 0 applyOp [min, avg, max] (sigma: ...)`` — with the samples
being the individual kernel-span durations (the paper samples across
ranks; the simulated lockstep ranks share one process, so invocations
are the natural sample population and the row format is identical).
:func:`measured_vs_model_report` then renders those measured rows
side-by-side with the calibrated machine model's predictions for the
same schedule (the measured-vs-model comparison behind the paper's
Fig. 9 discussion), and :func:`span_coverage` quantifies how much of
the root solve span the instrumented phases account for.
"""

from __future__ import annotations

from collections import defaultdict

from repro.obs.tracer import SpanRecord, Tracer
from repro.perf.timers import TimingStat, format_level_timing

#: span names that are pure structure (parents of the op spans below);
#: excluded from per-op aggregation, which covers the solve's operations
STRUCTURE_SPANS = frozenset(
    {"solve", "vcycle", "level", "smooth-visit", "bottom", "residual-check",
     "cg-iteration"}
)

#: measured span name -> operation keys of the machine model's
#: per-level breakdown (``TimedSolve.solve_level_times``); fused
#: pipeline spans cover the model's staged pair (``applyOp>residual``
#: is the convergence check's ``applyOp`` + ``residual``)
MODEL_OP_FOR = {
    "applyOp": ("applyOp",),
    "smooth": ("smooth",),
    "smooth+residual": ("smooth+residual",),
    "applyOp>smooth": ("applyOp", "smooth"),
    "applyOp>smooth+residual": ("applyOp", "smooth+residual"),
    "applyOp>residual": ("applyOp", "residual"),
    "exchange": ("exchange",),
    "restriction": ("restriction",),
    "interpolation+increment": ("interpolation+increment",),
    "initZero": ("initZero",),
}


def by_paper_op(totals: dict[tuple[int, str], int]) -> dict[tuple[int, str], int]:
    """Re-key recorded ``{(level, name): n}`` totals
    (``Recorder.kernel_counts()`` / ``kernel_points()``) by the paper's
    operation names: a fused stencil counts once for every staged
    kernel it covers (:data:`MODEL_OP_FOR`)."""
    out: dict[tuple[int, str], int] = defaultdict(int)
    for (lev, name), n in totals.items():
        for op in MODEL_OP_FOR.get(name, (name,)):
            out[(lev, op)] += n
    return dict(out)


def op_spans(tracer: Tracer) -> list[SpanRecord]:
    """Leaf operation spans (structure spans filtered out)."""
    return [s for s in tracer.ordered_spans() if s.name not in STRUCTURE_SPANS]


def aggregate_by_level_op(tracer: Tracer) -> dict[tuple[int, str], TimingStat]:
    """``{(level, op): TimingStat over span durations}``.

    The level comes from each span's ``l`` attribute; spans without one
    (none are emitted by the instrumented solve path) aggregate under
    level ``-1``.  A span carrying ``sweeps=w`` is one kernel call that
    ran an exchange window of ``w`` applications: it counts as ``w``
    samples of a ``w``-th of its duration, so counts and averages stay
    per application.
    """
    samples: dict[tuple[int, str], list[float]] = defaultdict(list)
    for s in op_spans(tracer):
        sweeps = int(s.attrs.get("sweeps", 1))
        samples[(int(s.attrs.get("l", -1)), s.name)].extend(
            [s.duration / sweeps] * sweeps
        )
    return {key: TimingStat.from_samples(v) for key, v in samples.items()}


def total_by_level_op(tracer: Tracer) -> dict[tuple[int, str], float]:
    """``{(level, op): summed measured seconds}``."""
    out: dict[tuple[int, str], float] = defaultdict(float)
    for s in op_spans(tracer):
        out[(int(s.attrs.get("l", -1)), s.name)] += s.duration
    return dict(out)


def span_coverage(tracer: Tracer, root_name: str = "solve") -> float:
    """Fraction of the root span's wall-clock covered by its descendants.

    Descendant intervals are unioned (never summed), so nested spans
    cannot push coverage past 1.0; multiple roots contribute
    duration-weighted.  Returns 0.0 when no root span exists.
    """
    roots = [s for s in tracer.ordered_spans() if s.name == root_name]
    if not roots:
        return 0.0
    by_parent: dict[int, list[SpanRecord]] = defaultdict(list)
    for s in tracer.ordered_spans():
        if s.parent is not None:
            by_parent[s.parent].append(s)

    covered_total = 0.0
    duration_total = 0.0
    for root in roots:
        intervals: list[tuple[float, float]] = []
        frontier = list(by_parent.get(root.index, ()))
        # direct children only: deeper spans are contained in them, so
        # the union over depth-1 children is the honest coverage figure
        for s in frontier:
            intervals.append((s.start, s.end))
        intervals.sort()
        covered = 0.0
        cur_start, cur_end = None, None
        for a, b in intervals:
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        covered_total += min(covered, root.duration)
        duration_total += root.duration
    if duration_total == 0.0:
        return 1.0
    return covered_total / duration_total


# ----------------------------------------------------------------------
# measured vs model
# ----------------------------------------------------------------------
def model_level_times(config, machine, num_vcycles: int) -> list[dict]:
    """The machine model's per-level op totals for ``config``'s schedule
    (:func:`repro.gmg.solver.timed_model`; periodic configurations only)."""
    from repro.gmg.solver import timed_model

    return timed_model(config, machine, max(num_vcycles, 1)).solve_level_times()


def kernel_bytes_per_point(itemsize: int) -> dict[str, int]:
    """Compulsory bytes per point of every library stencil, by span
    name, for fields of ``itemsize`` bytes per value."""
    from repro.dsl import library
    from repro.dsl.analysis import analyze

    stencils = (
        library.APPLY_OP, library.SMOOTH, library.SMOOTH_RESIDUAL,
        library.RESIDUAL, *library.FUSED_STENCILS.values(),
    )
    return {s.name: analyze(s).bytes_per_point_at(itemsize) for s in stencils}


def measured_vs_model_rows(
    tracer: Tracer, config, machine, num_vcycles: int, recorder=None
) -> list[dict]:
    """One dict per measured (level, op) row, model column attached.

    ``model_s`` is the machine model's prediction for the same
    operation totals (None for operations outside the model's
    breakdown, e.g. the convergence check's ``residual``).  With the
    solve's ``recorder``, stencil rows also carry ``gbps``: the
    compulsory traffic of the points they processed (at the
    configuration's precision) over their measured time.
    """
    stats = aggregate_by_level_op(tracer)
    totals = total_by_level_op(tracer)
    points = recorder.kernel_points() if recorder is not None else {}
    per_point = kernel_bytes_per_point(4 if config.precision == "fp32" else 8)
    model = (
        model_level_times(config, machine, num_vcycles)
        if machine is not None
        else None
    )
    rows = []
    for (lev, op) in sorted(stats):
        model_s = None
        if model is not None and 0 <= lev < len(model):
            keys = MODEL_OP_FOR.get(op)
            if keys is not None:
                model_s = sum(model[lev].get(k, 0.0) for k in keys)
        rows.append(
            {
                "level": lev,
                "op": op,
                "stat": stats[(lev, op)],
                "measured_total_s": totals[(lev, op)],
                "model_s": model_s,
                "gbps": (
                    per_point[op] * points[(lev, op)] / totals[(lev, op)] / 1e9
                    if op in per_point
                    and (lev, op) in points
                    and totals[(lev, op)] > 0
                    else None
                ),
            }
        )
    return rows


def render_measured_vs_model(
    rows: list[dict], machine_name: str | None = None
) -> str:
    """The profile report's breakdown block, artifact row format first.

    Each line is the paper's ``level L op [min, avg, max] (sigma: s)``
    row over the measured samples, extended with the measured total and
    (when a machine is given) the model's predicted total for the same
    operations — predictions are for the paper's GPU machines, so the
    interesting quantity is the *shape* agreement across levels and
    operations, not the absolute ratio.
    """
    header = "measured per-level breakdown"
    if machine_name:
        header += f" (model: {machine_name})"
    lines = [header]
    for row in rows:
        line = "  " + format_level_timing(row["level"], row["op"], row["stat"])
        line += f" total {row['measured_total_s']:.6g}s"
        if row.get("gbps") is not None:
            line += f" ({row['gbps']:.3g} GB/s compulsory)"
        if row["model_s"] is not None:
            line += f" | model {row['model_s']:.6g}s"
        lines.append(line)
    return "\n".join(lines)
