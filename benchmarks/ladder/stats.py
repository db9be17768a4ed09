"""Sample summaries for the ladder: medians, quartiles, tails, spread."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: tail percentiles a timing may be reported at, lowest first
TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)

#: a percentile is reported only with this many samples beyond it
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile of ``values`` (linear interpolation)."""
    if not values:
        raise ValueError("no samples")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be within [0, 100]: {p}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def highest_percentile(n: int, min_beyond: int = MIN_SAMPLES_BEYOND) -> float | None:
    """The highest of :data:`TAIL_PERCENTILES` that still has at least
    ``min_beyond`` of ``n`` samples beyond it; ``None`` when not even
    the median does (fewer than ``2 * min_beyond`` samples)."""
    best = None
    for p in TAIL_PERCENTILES:
        # rounded: 10000 * (100 - 99.9) / 100 is 9.999... in floats
        if round(n * (100.0 - p) / 100.0, 6) >= min_beyond:
            best = p
    return best


def summarize(values: Sequence[float]) -> dict:
    """Median, quartiles, extremes and count of one metric's samples."""
    if not values:
        raise ValueError("no samples")
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def spread(values: Sequence[float]) -> float | None:
    """Interquartile distance as a share of the median — the run-to-run
    spread the bounds are judged against.  ``None`` below four values,
    where quartiles say nothing."""
    if len(values) < 4:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    if q2 == 0:
        return None
    return (q3 - q1) / abs(q2)
