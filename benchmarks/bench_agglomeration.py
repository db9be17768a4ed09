"""Section IX remedy, modelled: coarse-level agglomeration.

The paper proposes "pack[ing] more computation from several ranks into
fewer ones" to rescue latency-bound strong scaling.  This bench prices
that restructuring: levels below a size threshold are gathered onto
fewer ranks (greedy per-level choice, binomial-tree gathers), the
coarsest levels collapse onto one rank where the 100-smooth bottom
solve runs with no network at all.

Expected shape: no regression anywhere on the ladder, and a measurable
time/efficiency win at the high-concurrency end on Perlmutter, whose
per-exchange overhead is the largest of the three.  On Frontier
(hardware-matched, GPU-attached NICs) the greedy per-level tuner
correctly concludes there is too little latency to reclaim and leaves
the schedule untouched — a machine-dependent outcome the model
discovers rather than assumes.
"""

import pytest

from benchmarks.conftest import report
from repro.harness.agglomeration import (
    render_agglomeration,
    strong_scaling_with_agglomeration,
)


@pytest.mark.parametrize("machine", ["Perlmutter", "Frontier", "Sunspot"])
def test_agglomeration_strong_scaling(benchmark, machine):
    result = benchmark.pedantic(
        strong_scaling_with_agglomeration, args=(machine,), rounds=1,
        iterations=1,
    )
    report(f"agglomeration_{machine}", render_agglomeration(result))

    for base, aggl in zip(
        result.baseline_seconds, result.agglomerated_seconds
    ):
        assert aggl <= base * 1.01  # never meaningfully slower
    if machine == "Perlmutter":
        # wins where per-exchange overhead is high; on Frontier the
        # hardware-matched, GPU-attached NICs leave little latency to
        # reclaim and the greedy tuner correctly declines to gather —
        # a machine-dependent result the model surfaces on its own
        assert result.agglomerated_seconds[-1] < result.baseline_seconds[-1]
        assert (
            result.agglomerated_efficiency[-1]
            > result.baseline_efficiency[-1]
        )

