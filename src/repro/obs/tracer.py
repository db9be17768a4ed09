"""Hierarchical wall-clock span tracer for the solve hot path.

The paper's whole analysis hangs off per-level, per-operation wall
times (``level 0 applyOp [min, avg, max] (sigma)``); everything in
:mod:`repro.perf` *formats* such rows from modelled times, but until
now nothing in the repo *measured* them.  A :class:`Tracer` records a
tree of nested spans — ``solve`` → ``vcycle`` → ``level`` → ``smooth``
→ ``applyOp`` — each with a ``perf_counter`` start and duration plus
free-form attributes, and zero-duration *instants* (fault injections,
detections, recovery actions) that land inside whatever span was open
when they fired.

Tracing is strictly opt-in.  Every instrumented call site holds a
tracer reference that defaults to the shared :data:`NULL_TRACER`, whose
``span()`` returns one preallocated no-op context manager — the
disabled path costs one attribute lookup and one method call per span.
What an *enabled* tracer costs is the benchmark ladder's
``obs.trace_overhead_ratio`` rung (``benchmarks/ladder``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class SpanRecord:
    """One finished span.

    ``start``/``duration`` are seconds on the tracer's monotonic clock
    (``start`` is relative to the tracer's construction, so traces from
    one run share an epoch).  ``index`` is the span's *opening* order —
    a depth-first preorder of the span tree — and ``parent`` is the
    opening index of the enclosing span (``None`` for roots).
    """

    name: str
    start: float
    duration: float
    depth: int
    index: int
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration

    def contains(self, t: float) -> bool:
        """Whether clock offset ``t`` falls inside this span."""
        return self.start <= t <= self.end


@dataclass(frozen=True)
class InstantRecord:
    """A zero-duration event (e.g. a fault) at one clock offset.

    ``parent`` is the opening index of the span that was live when the
    instant fired (``None`` when none was open), which is what lets a
    ``fault:detect_drop`` line up with the exchange it interrupted.
    """

    name: str
    timestamp: float
    parent: int | None
    attrs: dict = field(default_factory=dict)


class _NullSpan:
    """The no-op context manager the null tracer hands out.

    One shared instance; ``__enter__``/``__exit__`` do nothing, so a
    disabled call site costs a dict-free method call and nothing else.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, **attrs) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Instrumented components default to the shared :data:`NULL_TRACER`
    so the un-traced solve path never branches on ``tracer is None``.
    """

    enabled = False

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, **attrs) -> None:
        return None

    def child(self, rank: int) -> "NullTracer":
        """Per-rank child of the disabled tracer: itself."""
        return self

    def fork(self, key) -> "NullTracer":
        """Sibling timeline of the disabled tracer: itself."""
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullTracer()"


#: The shared disabled tracer every instrumented call site defaults to.
NULL_TRACER = NullTracer()


class _SpanContext:
    """Context manager for one open span of a recording tracer."""

    __slots__ = ("tracer", "name", "attrs", "start", "index", "parent", "depth")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_SpanContext":
        tr = self.tracer
        self.index = tr._next_index
        tr._next_index += 1
        stack = tr._stack
        self.parent = stack[-1].index if stack else None
        self.depth = len(stack)
        stack.append(self)
        self.start = tr._clock() - tr._epoch
        return self

    def set(self, **attrs) -> None:
        """Attach attributes learned while the span is open."""
        self.attrs.update(attrs)

    def __exit__(self, *exc) -> None:
        tr = self.tracer
        end = tr._clock() - tr._epoch
        popped = tr._stack.pop()
        if popped is not self:  # pragma: no cover - defensive
            raise RuntimeError(
                f"span {self.name!r} closed out of order (expected "
                f"{popped.name!r} to close first)"
            )
        tr.spans.append(
            SpanRecord(
                name=self.name,
                start=self.start,
                duration=end - self.start,
                depth=self.depth,
                index=self.index,
                parent=self.parent,
                attrs=self.attrs,
            )
        )


class Tracer:
    """Records a tree of wall-clock spans plus zero-duration instants.

    Use as::

        tracer = Tracer()
        with tracer.span("vcycle", v=3):
            with tracer.span("level", l=0):
                with tracer.span("smooth"):
                    ...
        tracer.instant("fault:detect_drop", rank=1)

    Spans close in LIFO order (enforced); ``spans`` holds finished
    spans in *completion* order, ``ordered_spans()`` re-sorts into the
    opening (preorder) order most consumers want.  ``clock`` is
    injectable for deterministic tests.
    """

    enabled = True

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._epoch = clock()
        self._next_index = 0
        self._stack: list[_SpanContext] = []
        self.spans: list[SpanRecord] = []
        self.instants: list[InstantRecord] = []
        #: per-rank child tracers created by :meth:`child`, keyed by rank
        self.children: dict[int, "Tracer"] = {}
        #: the rank this tracer records for (None for the root timeline)
        self.rank: int | None = None
        #: sibling logical timelines created by :meth:`fork`, keyed by
        #: the caller-chosen key, in creation order
        self.forks: dict = {}
        #: the key this tracer was forked under (None for the root)
        self.fork_key = None

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> _SpanContext:
        """Open a nested span; use as a ``with`` context manager."""
        return _SpanContext(self, name, attrs)

    def child(self, rank: int) -> "Tracer":
        """The per-rank child tracer for ``rank`` (created on first use).

        Children share this tracer's clock *and* epoch, so their span
        timestamps are directly comparable with the root timeline's —
        which is what lets the Chrome exporter emit each rank as its
        own pid on a common time axis.  Children have their own span
        stacks (one logical timeline per rank) and their own preorder
        indices.
        """
        tracer = self.children.get(rank)
        if tracer is None:
            tracer = Tracer(clock=self._clock)
            tracer._epoch = self._epoch
            tracer.rank = int(rank)
            self.children[rank] = tracer
        return tracer

    def fork(self, key) -> "Tracer":
        """A sibling logical timeline for ``key`` (created on first use).

        The span stack and preorder indices of a :class:`Tracer` encode
        *one* logical timeline: a second root span opened while another
        is still live would nest under it, and two interleaved solves
        sharing one tracer would therefore corrupt each other's parent
        links and Chrome export ordering.  A *fork* is a separate
        timeline — its own stack, indices and records — that shares
        this tracer's clock **and** epoch, so timestamps stay directly
        comparable and the Chrome exporter can emit each fork as its
        own thread on one common time axis.  A long-lived service forks
        once per solve/cohort and interleaves them freely.
        """
        tracer = self.forks.get(key)
        if tracer is None:
            tracer = Tracer(clock=self._clock)
            tracer._epoch = self._epoch
            tracer.fork_key = key
            self.forks[key] = tracer
        return tracer

    def instant(self, name: str, **attrs) -> None:
        """Record a zero-duration event inside the currently open span."""
        parent = self._stack[-1].index if self._stack else None
        self.instants.append(
            InstantRecord(
                name=name,
                timestamp=self._clock() - self._epoch,
                parent=parent,
                attrs=attrs,
            )
        )

    # ------------------------------------------------------------------
    @property
    def open_depth(self) -> int:
        """Number of currently open (unfinished) spans."""
        return len(self._stack)

    def ordered_spans(self) -> list[SpanRecord]:
        """Finished spans in opening (depth-first preorder) order."""
        return sorted(self.spans, key=lambda s: s.index)

    def roots(self) -> list[SpanRecord]:
        """Finished top-level spans in opening order."""
        return [s for s in self.ordered_spans() if s.parent is None]

    def children_of(self, span: SpanRecord) -> list[SpanRecord]:
        """Direct children of ``span`` in opening order."""
        return [s for s in self.ordered_spans() if s.parent == span.index]

    def find(self, name: str) -> list[SpanRecord]:
        """All finished spans with the given name, in opening order."""
        return [s for s in self.ordered_spans() if s.name == name]

    def total_time(self) -> float:
        """Summed duration of the root spans."""
        return sum(s.duration for s in self.roots())

    def clear(self) -> None:
        """Drop all finished records (open spans stay on the stack).

        Child tracers are cleared recursively but stay registered, so
        call sites holding a child reference keep recording into it.
        """
        self.spans.clear()
        self.instants.clear()
        for tracer in self.children.values():
            tracer.clear()
        for tracer in self.forks.values():
            tracer.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tracer(spans={len(self.spans)}, instants={len(self.instants)}, "
            f"open={self.open_depth})"
        )
