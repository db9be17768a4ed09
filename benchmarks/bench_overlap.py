"""Communication overlap: exposed-vs-hidden sweep over brick sizes.

Sweeps the tier-1 distributed solve (32^3 over 8 ranks, 3 levels)
across brick dimensions with the split-phase overlap schedule on and
off.  For every configuration the two schedules must produce
byte-equal residual histories; the measured payoff is the *exposed*
communication time — with overlap, the ``exchange.begin`` posting work
runs concurrently with interior compute, so only the
``exchange.finish`` wait stays on the critical path.

The brick dimension controls the interior/shell ratio: B=2 gives each
rank an 8^3 brick grid (6^3 of it deep interior, 42% of slots), B=4 a
4^3 grid (2^3 interior, 3%), and B=8 a 2^3 grid whose interior is
empty — the degenerate case where overlap legally hides nothing.

Results go to ``benchmarks/results/overlap.txt`` (human) and
``BENCH_pr7.json`` (repo root and ``benchmarks/results/``, both the
raw payload and via the schema-versioned ledger entry next to the
kernel-hotpath series).  Set ``REPRO_BENCH_RECORD=1`` to append the
run to ``benchmarks/results/ledger/overlap.jsonl``;
``REPRO_BENCH_QUICK=1`` cuts rounds for smoke runs.
"""

from __future__ import annotations

import time

from benchmarks._runner import QUICK, pick, publish_entry, write_bench_json
from benchmarks.conftest import report
from repro.gmg import GMGSolver, SolverConfig
from repro.obs.rank import overlap_report
from repro.obs.tracer import Tracer

ROUNDS = pick(5, 2)

#: the tier-1 distributed problem; brick dimension is the sweep axis
BASE = dict(
    global_cells=32,
    num_levels=3,
    rank_dims=(2, 2, 2),
    max_vcycles=4,
)
BRICK_DIMS = (2, 4, 8)


def _solve(brick_dim: int, overlap: bool):
    tracer = Tracer()
    solver = GMGSolver(
        SolverConfig(**BASE, brick_dim=brick_dim, overlap=overlap),
        tracer=tracer,
    )
    result = solver.solve()
    return result, tracer


def _comm_seconds(tracer: Tracer) -> tuple[float, float]:
    """(exposed_s, hidden_s) summed over the V-cycle overlap rows."""
    rows = overlap_report(tracer)
    return (
        sum(r.exposed_s for r in rows),
        sum(r.hidden_s for r in rows),
    )


def test_overlap_sweep():
    table: dict[str, dict] = {}
    wall_ms: dict[str, float] = {}

    for brick in BRICK_DIMS:
        histories = {}
        for overlap in (False, True):
            label = f"B{brick}_{'overlap' if overlap else 'sync'}"
            best_wall = float("inf")
            for _ in range(ROUNDS):
                t0 = time.perf_counter()
                result, tracer = _solve(brick, overlap)
                best_wall = min(best_wall, time.perf_counter() - t0)
            histories[overlap] = result.residual_history
            exposed, hidden = _comm_seconds(tracer)
            wall_ms[label] = round(best_wall * 1e3, 2)
            table[label] = {
                "brick_dim": brick,
                "overlap": overlap,
                "exposed_comm_ms": round(exposed * 1e3, 3),
                "hidden_comm_ms": round(hidden * 1e3, 3),
            }
        # the overlap schedule must not perturb a single bit
        assert histories[True] == histories[False], f"brick {brick}"

    # a non-degenerate interior hides a positive share of the exchange
    # machinery time — i.e. the overlapped run exposes strictly less
    # than its own wire cost (sync, by definition, exposes all of it)
    for brick in (2, 4):
        row = table[f"B{brick}_overlap"]
        assert row["hidden_comm_ms"] > 0.0, f"brick {brick}"
    # B=8 leaves 2^3 bricks per rank: the interior is empty, every slot
    # is shell, and overlap legally hides nothing
    assert table["B8_overlap"]["hidden_comm_ms"] == 0.0
    for brick in BRICK_DIMS:
        assert table[f"B{brick}_sync"]["hidden_comm_ms"] == 0.0

    lines = [
        "Communication overlap: exposed vs hidden comm by brick size",
        f"(32^3 over 2x2x2 ranks, 3 levels, 4 V-cycles; best of {ROUNDS})",
        "",
        f"{'configuration':<14}{'wall ms':>10}{'exposed ms':>12}{'hidden ms':>11}",
    ]
    for label, row in table.items():
        lines.append(
            f"{label:<14}{wall_ms[label]:>10.1f}"
            f"{row['exposed_comm_ms']:>12.2f}{row['hidden_comm_ms']:>11.2f}"
        )
    lines.append("")
    lines.append("histories bit-identical for every brick size")
    report("overlap", "\n".join(lines) + "\n")

    payload = {
        "benchmark": "overlap",
        "problem": {k: BASE[k] for k in ("global_cells", "num_levels")},
        "rounds": ROUNDS,
        "quick": QUICK,
        "end_to_end_ms": wall_ms,
        "micro": {
            "comm_ms": {
                label: row["exposed_comm_ms"] for label, row in table.items()
            }
        },
        "bit_identical_histories": True,
    }
    publish_entry("BENCH_pr7.json", payload)
    write_bench_json("overlap_raw.json", payload, root=False)


def test_model_before_after_critical_path():
    """The analytic before/after: pricing the tier-1 level-0 exchange
    through the event model, the overlapped schedule's exposed cost is
    strictly below the synchronous barrier whenever there is interior
    compute to hide behind — deterministically, unlike wallclock."""
    from repro.machines import MACHINES
    from repro.machines.eventsim import ExchangeEventSim, SimMessage

    sim = ExchangeEventSim(MACHINES["Perlmutter"], ranks_per_node=4, num_nodes=2)
    # 8 ranks, 6 face messages each: per-rank 16^3 cells, brick-deep
    # (4-cell) halo faces of fp64
    face_bytes = 16 * 16 * 4 * 8
    messages = [
        SimMessage(src, (src + stride) % 8, face_bytes)
        for src in range(8)
        for stride in (1, 7, 2, 6, 4, 4)
    ]
    sync = sim.overlap(messages, compute_s=0.0)
    assert sync.exposed_s == sync.comm_s > 0.0

    interior_compute = sync.comm_s / 2
    overlapped = sim.overlap(messages, compute_s=interior_compute)
    assert overlapped.exposed_s < sync.exposed_s
    assert overlapped.hidden_s > 0.0
    assert overlapped.comm_s == sync.comm_s  # hiding is free, not faster wire
