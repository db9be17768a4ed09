"""Shared benchmark-runner plumbing.

Every bench script used to carry its own copy of the same three rituals:
the ``REPRO_BENCH_QUICK`` round-cutting flag, the double-write of
``BENCH_*.json`` artifacts (canonical copy under ``benchmarks/results/``
plus a repo-root mirror for CI artifact pickup), and the ``REPRO_BENCH_RECORD`` dance that
stamps a ledger entry and appends it to the committed perf history.
This module is the single home for all three; the bench scripts keep
only what is actually specific to their measurement.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import TypeVar

from benchmarks.conftest import RESULTS_DIR

T = TypeVar("T")

#: set ``REPRO_BENCH_QUICK=1`` to cut rounds/iterations for smoke runs
QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def pick(full: T, quick: T) -> T:
    """``full`` normally, ``quick`` under ``REPRO_BENCH_QUICK=1``."""
    return quick if QUICK else full


def write_bench_json(name: str, obj, root: bool = True) -> str:
    """Write one canonical JSON artifact (sorted keys, trailing newline).

    The canonical copy lands under ``benchmarks/results/``; with
    ``root`` (the default) a byte-identical mirror lands at the repo
    root, where the CI perf jobs pick artifacts up.  Returns the
    serialised blob.
    """
    blob = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / name).write_text(blob)
    if root:
        (REPO_ROOT / name).write_text(blob)
    return blob


def publish_entry(json_name: str, payload_or_entry):
    """Emit a run's schema-versioned ledger-entry artifact.

    Accepts either a raw bench payload dict (converted through
    :func:`repro.obs.ledger.entry_from_bench_payload`) or a
    ready-built :class:`~repro.obs.ledger.LedgerEntry`.  Writes
    ``json_name`` via :func:`write_bench_json` and — when
    ``REPRO_BENCH_RECORD=1`` — stamps the entry with a UTC timestamp
    and appends it to the committed ledger at
    ``benchmarks/results/ledger/``.  Returns the entry.
    """
    from repro.obs.ledger import (
        LedgerEntry,
        PerfLedger,
        entry_from_bench_payload,
    )

    entry = (
        payload_or_entry
        if isinstance(payload_or_entry, LedgerEntry)
        else entry_from_bench_payload(payload_or_entry)
    )
    write_bench_json(json_name, entry.to_json())
    if os.environ.get("REPRO_BENCH_RECORD"):
        from datetime import datetime, timezone

        entry.recorded_at = datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        )
        PerfLedger(RESULTS_DIR / "ledger").record(entry)
    return entry
