"""Chrome trace-event export: open solver traces in Perfetto.

Serialises a :class:`~repro.obs.tracer.Tracer` into the Trace Event
Format's JSON object form (``{"traceEvents": [...]}``) consumed by
``chrome://tracing`` and https://ui.perfetto.dev: complete events
(``ph: "X"``) for spans, instant events (``ph: "i"``) for fault
instants, timestamps in microseconds.  :func:`validate_chrome_trace`
is the schema checker the test-suite and the CI profile-smoke job both
run against emitted files.
"""

from __future__ import annotations

import json

from repro.obs.tracer import Tracer

#: process/thread ids for the global (lockstep driver) timeline
_PID = 1
_TID = 1
#: rank ``r``'s child timeline exports as pid ``r + _RANK_PID_BASE``
_RANK_PID_BASE = 2
#: the ``k``-th fork timeline exports as tid ``k + _FORK_TID_BASE``
_FORK_TID_BASE = 2

#: event phases this exporter emits
_SPAN_PHASE = "X"
_INSTANT_PHASE = "i"
_METADATA_PHASE = "M"


def rank_pid(rank: int) -> int:
    """The Chrome-trace process id rank ``rank``'s timeline exports as."""
    return int(rank) + _RANK_PID_BASE


def _category(name: str) -> str:
    """Coarse event category shown as a Perfetto filter chip."""
    if name.startswith("fault:"):
        return "fault"
    if name in ("exchange", "unpack"):
        return "comm"
    if name in ("solve", "vcycle", "level", "smooth-visit", "bottom"):
        return "structure"
    return "kernel"


def fork_tid(position: int) -> int:
    """The Chrome-trace thread id of the ``position``-th fork timeline."""
    return int(position) + _FORK_TID_BASE


def _span_events(tracer: Tracer, pid: int, tid: int = _TID) -> list[dict]:
    return [
        {
            "name": s.name,
            "cat": _category(s.name),
            "ph": _SPAN_PHASE,
            "ts": s.start * 1e6,
            "dur": s.duration * 1e6,
            "pid": pid,
            "tid": tid,
            "args": dict(s.attrs),
        }
        for s in tracer.ordered_spans()
    ]


def to_chrome_trace(tracer: Tracer, metadata: dict | None = None) -> dict:
    """The tracer's records as a Trace Event Format object.

    The root tracer's spans export under pid 1 (the lockstep driver's
    logical timeline); every per-rank child tracer exports under its own
    pid (:func:`rank_pid`), with ``process_name`` metadata events so
    Perfetto labels each process ``rank N``.  Instants carrying a
    non-negative ``rank`` attribute — fault events name the rank that
    detected or suffered the fault — are routed to that rank's pid, so
    e.g. a ``fault:detect_drop`` lands on the timeline of the rank whose
    receive failed rather than on the global driver timeline; instants
    without a rank (solve-wide rollbacks) stay global.

    Fork timelines (:meth:`~repro.obs.tracer.Tracer.fork` — one per
    interleaved solve/cohort of a service run) share the root tracer's
    epoch, so they export on the same time axis as separate *threads*:
    the ``k``-th fork's spans carry tid :func:`fork_tid`, with
    ``thread_name`` metadata labelling each thread with its fork key;
    a fork's own per-rank children export under the rank's pid with the
    fork's tid.

    ``metadata`` lands in ``otherData`` (Perfetto shows it in the trace
    info panel) — the CLI puts the solver configuration there.
    """
    events: list[dict] = _span_events(tracer, _PID)
    used_rank_pids: dict[int, int] = {}
    #: thread_name metadata labels keyed by (pid, tid)
    thread_labels: dict[tuple[int, int], str] = {}

    def _emit_timeline(timeline: Tracer, pid: int, tid: int) -> None:
        events.extend(_span_events(timeline, pid, tid))
        for i in timeline.instants:
            events.append(_instant_event(i, pid, tid))

    for rank, child in sorted(tracer.children.items()):
        pid = rank_pid(rank)
        used_rank_pids[rank] = pid
        _emit_timeline(child, pid, _TID)
    for pos, (key, fork) in enumerate(tracer.forks.items()):
        tid = fork_tid(pos)
        label = f"fork {key}"
        events.extend(_span_events(fork, _PID, tid))
        thread_labels[(_PID, tid)] = label
        for i in fork.instants:
            rank = i.attrs.get("rank", -1)
            if isinstance(rank, int) and not isinstance(rank, bool) and rank >= 0:
                pid = used_rank_pids.setdefault(rank, rank_pid(rank))
            else:
                pid = _PID
            events.append(_instant_event(i, pid, tid))
        for rank, child in sorted(fork.children.items()):
            pid = rank_pid(rank)
            used_rank_pids[rank] = pid
            _emit_timeline(child, pid, tid)
            thread_labels[(pid, tid)] = label
    for i in tracer.instants:
        rank = i.attrs.get("rank", -1)
        if isinstance(rank, int) and not isinstance(rank, bool) and rank >= 0:
            pid = used_rank_pids.setdefault(rank, rank_pid(rank))
        else:
            pid = _PID
        events.append(_instant_event(i, pid))
    events.sort(key=lambda e: e["ts"])
    names = [(_PID, "solve (global timeline)")]
    names += [(pid, f"rank {rank}") for rank, pid in sorted(used_rank_pids.items())]
    process_names = [
        {
            "name": "process_name",
            "ph": _METADATA_PHASE,
            "ts": 0,
            "pid": pid,
            "tid": _TID,
            "args": {"name": label},
        }
        for pid, label in names
    ]
    thread_names = [
        {
            "name": "thread_name",
            "ph": _METADATA_PHASE,
            "ts": 0,
            "pid": pid,
            "tid": tid,
            "args": {"name": label},
        }
        for (pid, tid), label in sorted(thread_labels.items())
    ]
    return {
        "traceEvents": process_names + thread_names + events,
        "displayTimeUnit": "ms",
        "otherData": dict(metadata or {}),
    }


def _instant_event(instant, pid: int, tid: int = _TID) -> dict:
    return {
        "name": instant.name,
        "cat": _category(instant.name),
        "ph": _INSTANT_PHASE,
        "s": "t",  # thread-scoped instant
        "ts": instant.timestamp * 1e6,
        "pid": pid,
        "tid": tid,
        "args": dict(instant.attrs),
    }


def write_chrome_trace(
    tracer: Tracer, path, metadata: dict | None = None
) -> dict:
    """Serialise to ``path`` and return the exported object."""
    obj = to_chrome_trace(tracer, metadata)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
    return obj


def validate_chrome_trace(obj: dict) -> dict:
    """Check ``obj`` against the Trace Event Format subset we emit.

    Raises :class:`ValueError` on the first violation; returns
    ``{"spans": n, "instants": m}`` so callers (the CI smoke job) can
    assert the trace is non-trivial.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"trace must be a JSON object, got {type(obj).__name__}")
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace must carry a 'traceEvents' list")
    counts = {"spans": 0, "instants": 0, "metadata": 0, "pids": 0}
    pids: set = set()
    last_ts = float("-inf")
    for k, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"traceEvents[{k}] is not an object")
        for req in ("name", "ph", "ts", "pid", "tid"):
            if req not in ev:
                raise ValueError(f"traceEvents[{k}] missing required key {req!r}")
        if not isinstance(ev["name"], str) or not ev["name"]:
            raise ValueError(f"traceEvents[{k}] has an empty name")
        ts = ev["ts"]
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"traceEvents[{k}] has invalid ts {ts!r}")
        ph = ev["ph"]
        if ph == _METADATA_PHASE:
            # metadata events are emitted as a preamble and are exempt
            # from the monotonic-ts requirement (they all carry ts 0)
            if not isinstance(ev.get("args"), dict) or "name" not in ev["args"]:
                raise ValueError(
                    f"traceEvents[{k}] metadata event needs args.name"
                )
            counts["metadata"] += 1
            pids.add(ev["pid"])
            continue
        if ts < last_ts:
            raise ValueError(f"traceEvents[{k}] not sorted by ts")
        last_ts = ts
        pids.add(ev["pid"])
        if ph == _SPAN_PHASE:
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(
                    f"traceEvents[{k}] complete event needs dur >= 0, got {dur!r}"
                )
            counts["spans"] += 1
        elif ph == _INSTANT_PHASE:
            if ev.get("s") not in ("t", "p", "g"):
                raise ValueError(
                    f"traceEvents[{k}] instant needs scope s in t/p/g"
                )
            counts["instants"] += 1
        else:
            raise ValueError(f"traceEvents[{k}] has unsupported phase {ph!r}")
        if "args" in ev and not isinstance(ev["args"], dict):
            raise ValueError(f"traceEvents[{k}] args must be an object")
    counts["pids"] = len(pids)
    return counts


def validate_chrome_trace_file(path) -> dict:
    """Load ``path`` and validate it; returns the event counts."""
    with open(path) as fh:
        return validate_chrome_trace(json.load(fh))
