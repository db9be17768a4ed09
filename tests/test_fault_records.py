"""Golden fault records: what the resilient solve injects, detects and
recovers, event by event, pinned to ``tests/data/fault_records.json``.

Every case is a seeded :class:`~repro.faults.scenarios.Scenario`: the
``faultsweep`` battery, the ``chaossweep`` crash matrix and targeted
cases for the ladder, agglomeration transfers, buddy replicas and
storms.  Only host-independent
fields are recorded — every ``FaultEvent`` field, ``fault_counts``, the
communicator's traffic ledger, the exchange path tallies, the outcome
and a digest of the message events — never residual values, which are
the float bits of one host.

Regenerate (only when a change to fault behaviour is intended, and say
so in the change):

    PYTHONPATH=src python -m tests.test_fault_records --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.faults.scenarios import Scenario, battery, crash_matrix
from repro.gmg import SolverConfig
from repro.instrument import FaultEvent

from tests.test_exchange_plan import ladder_fault_plan

FIXTURE = Path(__file__).parent / "data" / "fault_records.json"
FAULT_FIELDS = [f.name for f in dataclasses.fields(FaultEvent)]

#: the ladder's ``faulted_8rank_32`` geometry
LADDER = SolverConfig(global_cells=32, num_levels=3, brick_dim=4, rank_dims=(2, 2, 2))
#: 16^3 over 2x2x2 in two levels: four clean cycles to 1e-4
SMALL = SolverConfig(
    global_cells=16, num_levels=2, brick_dim=4, rank_dims=(2, 2, 2),
    max_smooths=6, bottom_smooths=20, tol=1e-4,
)
#: level 3 runs on rank 0 alone: its wire messages are the transfers
AGGLOMERATED = SolverConfig(
    global_cells=32, num_levels=4, brick_dim=4, max_smooths=6,
    bottom_smooths=20, max_vcycles=8, rank_dims=(2, 2, 2),
    agglomerate_threshold=64,
)
#: a ring of four over two nodes: rank 0's buddy (rank 2) is no halo
#: neighbour, so a (src=0, rank=2) spec strikes only its replica
RING = SolverConfig(
    global_cells=16, num_levels=2, brick_dim=4, max_smooths=6,
    bottom_smooths=20, tol=1e-4, rank_dims=(4, 1, 1), ranks_per_node=2,
)


def _plan(*specs) -> FaultPlan:
    return FaultPlan(specs=tuple(specs))


CASES = {
    s.name: s
    for s in [
        *battery(2024),
        *crash_matrix(2024),
        *(Scenario(f"ladder-seed{seed}", LADDER, ladder_fault_plan(seed))
          for seed in range(10)),
        Scenario(
            "duplicate-on-final-exchange",
            dataclasses.replace(SMALL, max_vcycles=0),
            FaultPlan.single("duplicate", vcycle=0, level=0),
            expect_status="max_vcycles",
        ),
        Scenario(
            "gather-drop-and-corrupt",
            AGGLOMERATED,
            _plan(
                FaultSpec("drop", vcycle=1, level=3, src=1, rank=0),
                FaultSpec("corrupt", vcycle=2, level=3, src=2, rank=0),
            ),
            expect_status="max_vcycles",
        ),
        Scenario(
            "scatter-drop-and-corrupt",
            AGGLOMERATED,
            _plan(
                FaultSpec("drop", vcycle=1, level=3, src=0, rank=5),
                FaultSpec("corrupt", vcycle=2, level=3, src=0, rank=6),
            ),
            expect_status="max_vcycles",
        ),
        Scenario(
            "buddy-corrupt", RING,
            FaultPlan.single("corrupt", vcycle=0, src=0, rank=2),
        ),
        Scenario(
            "crash-mid-exchange", SMALL,
            FaultPlan.single("rank_crash", rank=3, vcycle=2, level=1),
        ),
        Scenario(
            "crash-mid-transfer", AGGLOMERATED,
            FaultPlan.single("rank_crash", rank=5, vcycle=1, level=3),
            expect_status="max_vcycles",
        ),
        Scenario(
            "persistent-storm", SMALL,
            FaultPlan.single("drop", level=0, vcycle_from=2, max_hits=None),
            expect_status="failed_faults",
        ),
    ]
}


def record(scenario: Scenario) -> dict:
    """The host-independent record of one scenario's solve."""
    solver = scenario.solver()
    result = solver.solve()
    paths = {"planned": 0, "envelope": 0}
    for _, ex in solver.halo_exchangers():
        for path, n in ex.path_counts.items():
            paths[path] += n
    messages = hashlib.sha256(
        repr([dataclasses.astuple(m) for m in result.recorder.messages]).encode()
    ).hexdigest()
    return {
        "status": result.status,
        "rollbacks": result.rollbacks,
        "executed_vcycles": result.executed_vcycles,
        "vcycles": result.num_vcycles,
        "fault_counts": dict(sorted(result.fault_counts.items())),
        # one row per FaultEvent, its fields in FAULT_FIELDS order
        "faults": [list(dataclasses.astuple(f)) for f in result.recorder.faults],
        "ledger": [
            [*key, *entry] for key, entry in solver.comm.ledger.items()
        ],
        "path_counts": paths,
        "messages_sha256": messages,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_reproduces_golden_record(name, golden):
    got = json.loads(json.dumps(record(CASES[name])))
    want = golden[name]
    for key in want:
        assert got[key] == want[key], f"{name}: {key} differs"
    assert got == want


def test_records_end_in_expected_status(golden):
    assert {name: golden[name]["status"] for name in CASES} == {
        name: sc.expect_status for name, sc in CASES.items()
    }


def test_cases_cover_what_they_name(golden):
    """Each targeted case injects what its name says, where it says."""
    kind, tag = FAULT_FIELDS.index("kind"), FAULT_FIELDS.index("tag")

    def injected(name):
        return {
            (f[kind], f[tag]) for f in golden[name]["faults"]
            if f[kind].startswith("inject_")
        }

    gather, scatter = 10_000 + 2 * 3, 10_000 + 2 * 3 + 1
    assert injected("gather-drop-and-corrupt") == {
        ("inject_drop", gather), ("inject_corrupt", gather)
    }
    assert injected("scatter-drop-and-corrupt") == {
        ("inject_drop", scatter), ("inject_corrupt", scatter)
    }
    assert injected("buddy-corrupt") == {("inject_corrupt", 20_000)}
    assert golden["buddy-corrupt"]["fault_counts"]["detect_corrupt"] == 1
    final = golden["duplicate-on-final-exchange"]
    assert final["fault_counts"]["detect_duplicate"] == 1
    assert golden["persistent-storm"]["status"] == "failed_faults"
    for crash in ("crash-mid-exchange", "crash-mid-transfer"):
        assert golden[crash]["fault_counts"]["inject_rank_crash"] == 1


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_fault_records --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    rows = [f" {json.dumps(name)}: {json.dumps(record(sc))}" for name, sc in CASES.items()]
    FIXTURE.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {len(rows)} records to {FIXTURE}")
