"""Rank-resolved communication analysis over per-rank span timelines.

The tracing layer (:meth:`~repro.obs.tracer.Tracer.child`) gives every
simulated rank its own timeline: each ``isend``/``irecv``/``unpack``/
``retransmit`` lands as a span on the rank doing the work, attributed
with ``(src, dst, tag, bytes, seq)`` and the multigrid level.  This
module turns those timelines into the three communication views the
``repro commviz`` command renders:

* :func:`traffic_matrix` — the rank x rank matrix of messages, bytes
  and retransmissions (per level and in total), cross-checkable against
  :attr:`~repro.comm.simmpi.SimComm.bytes_by_pair`;
* :func:`rank_time_breakdown` — seconds per span name per rank, the
  "who spends their time where" table;
* :func:`critical_paths` — per V-cycle, the longest dependency chain
  through the span DAG (same-rank sequential edges plus matched
  send -> recv edges), priced against the network model's ``alpha +
  n/beta`` cost so measured chains can be compared with what the model
  predicts for the same messages.

The matched-edge construction relies on the lockstep execution order:
all sends of an exchange are posted before any receive completes, so a
send span always starts (and ends) before its matching receive span and
sorting by start time is a valid topological order of the DAG.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs.tracer import SpanRecord, Tracer

#: span names that represent one wire transmission by the *sender*
_SEND_NAMES = ("isend", "retransmit")
#: span names counted as communication work in the breakdown
COMM_SPAN_NAMES = ("isend", "irecv", "unpack", "retransmit")


@dataclass
class CommMatrix:
    """Rank x rank traffic, totalled and per multigrid level.

    ``messages[src][dst]`` counts transmissions (retransmissions
    included, matching :class:`~repro.comm.simmpi.SimComm`'s
    ``sent_messages``/``bytes_by_pair`` accounting); ``nbytes`` sums
    payload bytes the same way; ``retransmissions`` counts only the
    resends.  ``level_messages``/``level_nbytes`` split the totals by
    the exchange's multigrid level (-1 when the caller did not tag one).
    """

    size: int
    messages: np.ndarray
    nbytes: np.ndarray
    retransmissions: np.ndarray
    level_messages: dict[int, np.ndarray] = field(default_factory=dict)
    level_nbytes: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def total_messages(self) -> int:
        return int(self.messages.sum())

    @property
    def total_bytes(self) -> int:
        return int(self.nbytes.sum())

    @property
    def total_retransmissions(self) -> int:
        return int(self.retransmissions.sum())

    def levels(self) -> list[int]:
        """The multigrid levels traffic was observed on, ascending."""
        return sorted(self.level_messages)


def _infer_size(tracer: Tracer) -> int:
    """Smallest rank count covering every child timeline and endpoint."""
    hi = -1
    for rank, child in tracer.children.items():
        hi = max(hi, rank)
        for s in child.spans:
            hi = max(hi, s.attrs.get("src", -1), s.attrs.get("dst", -1))
    return hi + 1


def traffic_matrix(tracer: Tracer, size: int | None = None) -> CommMatrix:
    """Aggregate per-rank send spans into a :class:`CommMatrix`.

    Only sender-side spans (``isend``, ``retransmit``) are counted, so
    a delivered message contributes exactly once even though it also
    appears as an ``irecv`` span on the receiver's timeline — which is
    what makes the result directly comparable with the simulator's own
    ``bytes_by_pair`` ledger.
    """
    n = _infer_size(tracer) if size is None else int(size)
    if n < 1:
        raise ValueError("no per-rank spans recorded and no size given")
    messages = np.zeros((n, n), dtype=np.int64)
    nbytes = np.zeros((n, n), dtype=np.int64)
    retrans = np.zeros((n, n), dtype=np.int64)
    level_messages: dict[int, np.ndarray] = {}
    level_nbytes: dict[int, np.ndarray] = {}
    for child in tracer.children.values():
        for s in child.spans:
            if s.name not in _SEND_NAMES:
                continue
            src, dst = s.attrs["src"], s.attrs["dst"]
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(
                    f"span {s.name!r} endpoint ({src}->{dst}) out of range "
                    f"for size {n}"
                )
            b = int(s.attrs.get("bytes", 0))
            messages[src, dst] += 1
            nbytes[src, dst] += b
            if s.name == "retransmit":
                retrans[src, dst] += 1
            lev = int(s.attrs.get("l", -1))
            if lev not in level_messages:
                level_messages[lev] = np.zeros((n, n), dtype=np.int64)
                level_nbytes[lev] = np.zeros((n, n), dtype=np.int64)
            level_messages[lev][src, dst] += 1
            level_nbytes[lev][src, dst] += b
    return CommMatrix(
        size=n,
        messages=messages,
        nbytes=nbytes,
        retransmissions=retrans,
        level_messages=level_messages,
        level_nbytes=level_nbytes,
    )


def rank_time_breakdown(tracer: Tracer) -> dict[int, dict[str, float]]:
    """Seconds spent per span name on each rank's timeline.

    ``{rank: {span_name: total_seconds}}``, ranks ascending.  Covers
    every span recorded on the child timelines (communication plus
    e.g. the engine's per-rank ``adopt-rank`` copies), so the table is
    a complete account of attributed per-rank work.
    """
    out: dict[int, dict[str, float]] = {}
    for rank in sorted(tracer.children):
        by_name: dict[str, float] = {}
        for s in tracer.children[rank].spans:
            by_name[s.name] = by_name.get(s.name, 0.0) + s.duration
        out[rank] = by_name
    return out


# ----------------------------------------------------------------------
# critical path
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PathStep:
    """One span on a critical path."""

    rank: int
    name: str
    level: int
    nbytes: int
    start_s: float
    duration_s: float


@dataclass
class CriticalPath:
    """The longest dependency chain through one V-cycle's comm spans.

    ``duration_s`` sums the chain's span durations; because the chain's
    spans are pairwise disjoint intervals inside the V-cycle window,
    it is always bounded by ``window_s``, the measured duration of the
    enclosing ``vcycle`` root span.  ``model_s`` is the network model's
    ``alpha + n/beta`` price for the same chain (None without a
    machine): each distinct wire message on the path once, plus the
    timeout-and-resend cost of any retransmission.
    """

    vcycle: int
    window_s: float
    duration_s: float
    steps: list[PathStep]
    model_s: float | None = None

    @property
    def comm_bytes(self) -> int:
        return sum(s.nbytes for s in self.steps)


def _message_key(span: SpanRecord) -> tuple:
    a = span.attrs
    return (a.get("src"), a.get("dst"), a.get("tag"), a.get("seq"))


def _path_model_s(steps: list[PathStep], raw: list[SpanRecord], machine) -> float:
    """Price a chain's communication with the network model."""
    from repro.machines.network import message_time, retransmit_time

    seen: set[tuple] = set()
    total = 0.0
    for step, span in zip(steps, raw):
        if step.name == "retransmit":
            total += retransmit_time(machine, step.nbytes)
        elif step.name in ("isend", "irecv"):
            key = _message_key(span)
            if key not in seen:
                seen.add(key)
                total += message_time(machine, step.nbytes)
    return total


def critical_paths(tracer: Tracer, machine=None) -> list[CriticalPath]:
    """The longest per-rank dependency chain inside each V-cycle.

    Builds, per ``vcycle`` root span, a DAG over every child-timeline
    span in the window: consecutive spans on the same rank are ordered
    (a rank is one logical execution stream), and an ``irecv`` depends
    on the ``isend``/``retransmit`` that put its ``(src, dst, tag,
    seq)`` envelope on the wire.  Spans sorted by start time are a
    topological order (lockstep posts every send before any matching
    wait), so one forward longest-path DP pass suffices.
    """
    paths: list[CriticalPath] = []
    events: list[tuple[int, SpanRecord]] = [
        (rank, s)
        for rank, child in sorted(tracer.children.items())
        for s in child.ordered_spans()
    ]
    for window in tracer.find("vcycle"):
        inside = sorted(
            (
                (rank, s)
                for rank, s in events
                if window.start <= s.start and s.end <= window.end
            ),
            key=lambda rs: (rs[1].start, rs[0]),
        )
        if not inside:
            continue
        # longest-path DP over the implicit DAG
        dist: list[float] = []
        pred: list[int | None] = []
        last_on_rank: dict[int, int] = {}
        sends: dict[tuple, int] = {}
        for i, (rank, s) in enumerate(inside):
            best, best_pred = 0.0, None
            j = last_on_rank.get(rank)
            if j is not None and dist[j] > best:
                best, best_pred = dist[j], j
            if s.name == "irecv":
                j = sends.get(_message_key(s))
                if j is not None and dist[j] > best:
                    best, best_pred = dist[j], j
            dist.append(best + s.duration)
            pred.append(best_pred)
            last_on_rank[rank] = i
            if s.name in _SEND_NAMES:
                sends[_message_key(s)] = i
        end = int(np.argmax(dist))
        chain: list[int] = []
        k: int | None = end
        while k is not None:
            chain.append(k)
            k = pred[k]
        chain.reverse()
        steps = [
            PathStep(
                rank=rank,
                name=s.name,
                level=int(s.attrs.get("l", -1)),
                nbytes=int(s.attrs.get("bytes", 0)),
                start_s=s.start,
                duration_s=s.duration,
            )
            for rank, s in (inside[i] for i in chain)
        ]
        raw = [inside[i][1] for i in chain]
        paths.append(
            CriticalPath(
                vcycle=int(window.attrs.get("v", len(paths))),
                window_s=window.duration,
                duration_s=float(dist[end]),
                steps=steps,
                model_s=(
                    _path_model_s(steps, raw, machine)
                    if machine is not None
                    else None
                ),
            )
        )
    return paths


# ----------------------------------------------------------------------
# model fit
# ----------------------------------------------------------------------
def message_time_samples(tracer: Tracer) -> tuple[np.ndarray, np.ndarray]:
    """Measured ``(bytes, seconds)`` pairs of every send span.

    The raw series behind the commviz model-fit panel: one sample per
    ``isend``/``retransmit`` across all rank timelines.
    """
    xs, ts = [], []
    for child in tracer.children.values():
        for s in child.spans:
            if s.name in _SEND_NAMES and s.attrs.get("bytes", 0) > 0:
                if s.duration > 0:
                    xs.append(float(s.attrs["bytes"]))
                    ts.append(float(s.duration))
    return np.asarray(xs), np.asarray(ts)


def fit_message_model(tracer: Tracer):
    """OLS fit of measured send times to ``t = alpha + n/beta``.

    Returns a
    :class:`~repro.perf.linear_model.LatencyBandwidthFit`, or None when
    the trace holds fewer than two distinct message sizes (the fit
    needs a slope).
    """
    from repro.perf.linear_model import fit_from_times

    xs, ts = message_time_samples(tracer)
    if len(np.unique(xs)) < 2:
        return None
    return fit_from_times(xs, ts)
