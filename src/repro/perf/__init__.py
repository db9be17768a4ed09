"""Performance analysis: the paper's models and metrics.

* :mod:`~repro.perf.linear_model` — the latency/bandwidth model
  ``f(x) = x/(alpha + x/beta)`` of Section VI-A and its least-squares
  fit, used to extract empirical latency and throughput from timing
  series (Figs. 5 and 6);
* :mod:`~repro.perf.portability` — Pennycook's performance portability
  metric (harmonic mean of per-platform efficiencies, Section VII);
* :mod:`~repro.perf.ai` — theoretical vs achieved arithmetic intensity
  (Tables IV and V);
* :mod:`~repro.perf.speedup` — potential-speedup iso-curves (Fig. 7);
* :mod:`~repro.perf.timers` — the paper's cross-rank
  ``[min, avg, max] (sigma)`` timing statistics format.
"""

from repro.perf.ai import achieved_ai, ai_comparison_rows
from repro.perf.linear_model import (
    LatencyBandwidthFit,
    fit_latency_bandwidth,
    fit_from_times,
    latency_bandwidth_model,
)
from repro.perf.portability import (
    efficiency_table_phi,
    harmonic_mean,
    performance_portability,
)
from repro.perf.speedup import iso_speedup_curve, potential_speedup
from repro.perf.timers import TimingStat, format_level_timing

__all__ = [
    "latency_bandwidth_model",
    "fit_latency_bandwidth",
    "fit_from_times",
    "LatencyBandwidthFit",
    "performance_portability",
    "harmonic_mean",
    "efficiency_table_phi",
    "achieved_ai",
    "ai_comparison_rows",
    "potential_speedup",
    "iso_speedup_curve",
    "TimingStat",
    "format_level_timing",
]
