"""Instrumentation: operation and message accounting.

A :class:`Recorder` is threaded through the solver and the exchange
layer to count every kernel invocation (with its point count) and every
message (with its payload size and segment count).  Two consumers rely
on it:

* tests cross-check the performance harness's analytic operation/message
  counts against what the functional solver actually executed;
* the timed experiments price each recorded event with a machine model
  to produce the paper's figures.

Recording costs O(1) per call whatever it stands for: a smoother call
of ``n`` sweeps is one kernel record of multiplicity ``n``, and a
planned exchange appends one reference to its plan's cached tuple of
message events.  :attr:`Recorder.kernels` and :attr:`Recorder.messages`
expand those runs, in order, when read; the aggregates read the
multiplicities without expanding.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field


@dataclass(frozen=True)
class KernelEvent:
    """One kernel invocation."""

    level: int
    op: str
    points: int


@dataclass(frozen=True)
class MessageEvent:
    """One point-to-point message within an exchange."""

    level: int
    nbytes: int
    direction_kind: str  # 'face' | 'edge' | 'corner'
    segments: int  # contiguous storage segments gathered to send
    self_message: bool  # single-rank periodic wrap (no NIC traversal)


#: Fault-event kinds: ``inject_*`` are produced by the fault injector,
#: ``detect_*`` by the detection layers (checksums, shape validation,
#: residual-loop health checks), and the rest by the recovery machinery.
FAULT_KINDS = (
    "inject_drop",
    "inject_corrupt",
    "inject_duplicate",
    "inject_delay",
    "inject_sdc",
    "inject_rank_crash",
    "detect_drop",
    "detect_corrupt",
    "detect_duplicate",
    "detect_delay",
    "detect_sdc",
    "detect_divergence",
    "detect_stagnation",
    "detect_rank_crash",
    "retry",
    "retransmit",
    "checkpoint",
    "buddy_checkpoint",
    "buddy_restore",
    "comm_repair",
    "global_restart",
    "rollback",
    "purge",
    "give_up",
)


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, detection, or recovery action.

    ``level``/``rank``/``src``/``tag`` are ``-1`` when not applicable
    (e.g. a rollback is a solve-wide action, not a per-message one).
    ``attempt`` numbers retries within one receive (1-based) so the
    pricing layer can apply exponential backoff; ``nbytes`` sizes
    retransmissions and checkpoints for the same purpose.
    """

    kind: str
    vcycle: int = -1
    level: int = -1
    rank: int = -1
    src: int = -1
    tag: int = -1
    nbytes: int = 0
    attempt: int = 0
    detail: str = ""


@dataclass
class Recorder:
    """Accumulates kernel and message events for one solve.

    ``tracer`` is an optional :class:`repro.obs.tracer.Tracer`: every
    fault event is mirrored as a zero-duration trace instant, so
    injections, detections and recovery actions line up with the solve
    phase (exchange, smooth, rollback) that was open when they fired.
    All fault producers — the injector, the resilient exchange, the
    recovery driver — funnel through :meth:`fault`, so this one hook
    covers them all.
    """

    exchanges: defaultdict = field(default_factory=lambda: defaultdict(int))
    reductions: int = 0
    faults: list[FaultEvent] = field(default_factory=list)
    tracer: object | None = field(default=None, repr=False, compare=False)
    #: ``(level, op, points, times)`` per :meth:`kernel` call, in order
    _kernel_runs: list = field(default_factory=list, init=False, repr=False)
    #: tuples of message events in send order, each a run recorded by
    #: reference (:meth:`message_run`) or one :meth:`message`
    _message_runs: list = field(default_factory=list, init=False, repr=False)
    #: ``{id(run): [run, times]}``: each distinct run once, with how
    #: often it was recorded — what the aggregates read
    _message_tally: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # event entry points
    # ------------------------------------------------------------------
    def kernel(self, level: int, op: str, points: int, times: int = 1) -> None:
        """Record ``times`` invocations of ``op`` over ``points`` points
        (one call of a kernel that ran ``times`` sweeps)."""
        self._kernel_runs.append((level, op, int(points), times))

    def message(
        self,
        level: int,
        nbytes: int,
        direction_kind: str,
        segments: int = 1,
        self_message: bool = False,
    ) -> None:
        self.message_run(
            (MessageEvent(level, int(nbytes), direction_kind, segments, self_message),)
        )

    def message_run(self, events: tuple[MessageEvent, ...]) -> None:
        """Record ``events``, in order, keeping a reference to the
        tuple: a caller that records the same tuple again adds only its
        multiplicity."""
        self._message_runs.append(events)
        run = self._message_tally.get(id(events))
        if run is None:
            self._message_tally[id(events)] = [events, 1]
        else:
            run[1] += 1

    @property
    def kernels(self) -> list[KernelEvent]:
        """Every kernel invocation in order, one event per sweep."""
        out = []
        for level, op, points, times in self._kernel_runs:
            out += [KernelEvent(level, op, points)] * times
        return out

    @property
    def messages(self) -> list[MessageEvent]:
        """Every message in send order."""
        return [ev for run in self._message_runs for ev in run]

    def exchange(self, level: int) -> None:
        self.exchanges[level] += 1

    def reduction(self) -> None:
        self.reductions += 1

    def fault(
        self,
        kind: str,
        vcycle: int = -1,
        level: int = -1,
        rank: int = -1,
        src: int = -1,
        tag: int = -1,
        nbytes: int = 0,
        attempt: int = 0,
        detail: str = "",
    ) -> None:
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; choose from {FAULT_KINDS}")
        self.faults.append(
            FaultEvent(kind, vcycle, level, rank, src, tag, nbytes, attempt, detail)
        )
        if self.tracer is not None:
            self.tracer.instant(
                f"fault:{kind}", vcycle=vcycle, level=level, rank=rank,
                src=src, tag=tag, nbytes=nbytes, attempt=attempt,
            )

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def kernel_counts(self) -> dict[tuple[int, str], int]:
        """``{(level, op): invocation count}``."""
        out: dict[tuple[int, str], int] = defaultdict(int)
        for level, op, _, times in self._kernel_runs:
            out[(level, op)] += times
        return dict(out)

    def kernel_points(self) -> dict[tuple[int, str], int]:
        """``{(level, op): total points processed}``."""
        out: dict[tuple[int, str], int] = defaultdict(int)
        for level, op, points, times in self._kernel_runs:
            out[(level, op)] += points * times
        return dict(out)

    def message_bytes_by_level(self) -> dict[int, int]:
        """Total message payload per level (self-messages included)."""
        out: dict[int, int] = defaultdict(int)
        for run, times in self._message_tally.values():
            for ev in run:
                out[ev.level] += ev.nbytes * times
        return dict(out)

    def message_counts_by_level(self) -> dict[int, int]:
        out: dict[int, int] = defaultdict(int)
        for run, times in self._message_tally.values():
            for ev in run:
                out[ev.level] += times
        return dict(out)

    def exchange_counts(self) -> dict[int, int]:
        """``{level: number of exchange phases}``."""
        return dict(self.exchanges)

    def total_stencil_points(self, ops: tuple[str, ...] | None = None) -> int:
        """Total points across kernels (optionally restricted to ``ops``)."""
        return sum(
            points * times
            for _, op, points, times in self._kernel_runs
            if ops is None or op in ops
        )

    def fault_counts(self) -> dict[str, int]:
        """``{fault kind: event count}`` (kinds with zero events omitted)."""
        out: dict[str, int] = defaultdict(int)
        for ev in self.faults:
            out[ev.kind] += 1
        return dict(out)

    def faults_of(self, *kinds: str) -> list[FaultEvent]:
        """Fault events restricted to the given kinds."""
        return [ev for ev in self.faults if ev.kind in kinds]

    @property
    def injected_faults(self) -> int:
        return sum(1 for ev in self.faults if ev.kind.startswith("inject_"))

    @property
    def detected_faults(self) -> int:
        return sum(1 for ev in self.faults if ev.kind.startswith("detect_"))

    @property
    def retries(self) -> int:
        return sum(1 for ev in self.faults if ev.kind == "retry")

    @property
    def rollbacks(self) -> int:
        return sum(1 for ev in self.faults if ev.kind == "rollback")

    def clear(self) -> None:
        self._kernel_runs.clear()
        self._message_runs.clear()
        self._message_tally.clear()
        self.exchanges.clear()
        self.reductions = 0
        self.faults.clear()
