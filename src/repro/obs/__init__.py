"""Observability: span tracing, metrics, and profiling reports.

* :mod:`~repro.obs.tracer` — hierarchical wall-clock spans and
  zero-duration instants with a zero-overhead null fast path;
* :mod:`~repro.obs.chrome_trace` — Chrome trace-event JSON export
  (``chrome://tracing`` / Perfetto) plus the schema validator;
* :mod:`~repro.obs.aggregate` — per-level, per-op ``TimingStat`` rows
  from measured spans, side-by-side with the machine model;
* :mod:`~repro.obs.metrics` — counters/gauges bridging the event
  :class:`~repro.instrument.Recorder` into one snapshot;
* :mod:`~repro.obs.profile` — the ``python -m repro profile`` core;
* :mod:`~repro.obs.rank` — the rank x rank traffic matrix, per level
  and in total, off the communicator's ledger (the ``python -m repro
  commviz`` core).
"""

from repro.obs.aggregate import (
    aggregate_by_level_op,
    measured_vs_model_rows,
    render_measured_vs_model,
    span_coverage,
    total_by_level_op,
)
from repro.obs.chrome_trace import (
    to_chrome_trace,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry, solve_metrics
from repro.obs.profile import ProfileReport, profile_solve
from repro.obs.rank import CommMatrix, traffic_matrix
from repro.obs.tracer import (
    NULL_TRACER,
    InstantRecord,
    NullTracer,
    SpanRecord,
    Tracer,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "SpanRecord",
    "InstantRecord",
    "to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
    "aggregate_by_level_op",
    "total_by_level_op",
    "span_coverage",
    "measured_vs_model_rows",
    "render_measured_vs_model",
    "MetricsRegistry",
    "solve_metrics",
    "ProfileReport",
    "profile_solve",
    "CommMatrix",
    "traffic_matrix",
]
