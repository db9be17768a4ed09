"""Bench-side tracing: spans recorded from outside ``repro``.

The traced run wraps calls into each layer's public entry points from
here, records ``(name, start, end, parent, operation)`` in memory and
aggregates at exit.  It deliberately does not use ``repro.obs.Tracer``:
that tracer is itself something later PRs rework, and these counters
must keep their meaning across that.

Every hook is attached by probing.  An entry point that no longer
exists is noted in :attr:`Hooks.missing` with a reason and the metrics
that depended on it read as unavailable; nothing raises.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager

#: sentinel: "this attribute was not set on the patched object itself"
_ABSENT = object()


class Hooks:
    """Reversible attribute patches attached by probing."""

    def __init__(self) -> None:
        self._undo: list[tuple] = []
        #: ``{hook label: why it could not be attached}``
        self.missing: dict[str, str] = {}

    def patch(self, owner, attr: str, wrap, label: str) -> bool:
        """Replace ``owner.attr`` with ``wrap(original)``."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing[label] = (
                f"{getattr(owner, '__name__', type(owner).__name__)} has no "
                f"attribute {attr!r}"
            )
            return False
        saved = getattr(owner, "__dict__", {}).get(attr, _ABSENT)
        try:
            setattr(owner, attr, wrap(original))
        except (AttributeError, TypeError) as exc:
            self.missing[label] = f"cannot patch {attr!r}: {exc}"
            return False
        self._undo.append((owner, attr, saved))
        return True

    def module(self, name: str, label: str):
        """Import ``name``; a failure is recorded, not raised."""
        try:
            return importlib.import_module(name)
        except ImportError as exc:
            self.missing[label] = f"cannot import {name}: {exc}"
            return None

    def restore(self) -> None:
        while self._undo:
            owner, attr, saved = self._undo.pop()
            if saved is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)


class SpanTracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: ``[name, start, end, parent index or None, operation id]``
        self.spans: list[list] = []
        #: calls per span name (equals the span count; kept separately
        #: so ratios are counted where the work happens)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        #: identifier shared by every span of the current solve/request
        self.operation = None
        #: the patches this tracer's spans come from
        self.hooks = Hooks()

    @property
    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, parent, self.operation])
        self._stack.append(index)
        self.counts[name] += 1
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn, name):
        """``fn`` wrapped in a span.  ``name`` is the span name, or a
        callable taking the call's arguments and returning one; a
        ``None`` name passes the call through unrecorded."""
        namer = name if callable(name) else None

        def traced(*args, **kwargs):
            label = namer(*args, **kwargs) if namer is not None else name
            if label is None:
                return fn(*args, **kwargs)
            index = self._open(label)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        traced.__wrapped__ = fn
        return traced

    def dump(self, path) -> None:
        """Write every span and call count out (done once, at exit)."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "columns": ["name", "start", "end", "parent", "operation"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
            )


def covered_length(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    edge = None
    for start, end in sorted(intervals):
        if edge is None or start > edge:
            total += end - start
            edge = end
        elif end > edge:
            total += end - edge
            edge = end
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part its children cover."""
    children: list[list] = [[] for _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            p_start, p_end = spans[parent][1], spans[parent][2]
            children[parent].append((max(start, p_start), min(end, p_end)))
    return [
        (end - start) - covered_length(children[i])
        for i, (_, start, end, _, _) in enumerate(spans)
    ]


def aggregate(spans, root: str | None = None) -> dict[str, dict]:
    """``{name: {"self_s", "total_s", "calls"}}`` summed over spans.

    With ``root``, only spans named ``root`` and their descendants
    count, so work recorded outside any root (warm-up under class-level
    hooks) does not inflate a layer's share of the root's wall.
    """
    out: dict[str, dict] = {}
    inside: list[bool] = []
    for (name, start, end, parent, _), own in zip(spans, self_times(spans)):
        # a parent always precedes its children in the list
        inside.append(
            root is None or name == root
            or (parent is not None and inside[parent])
        )
        if not inside[-1]:
            continue
        row = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        row["self_s"] += own
        row["total_s"] += end - start
        row["calls"] += 1
    return out


def _level_name(prefix: str, level) -> str:
    return f"{prefix}.l{getattr(level, 'index', 'x')}"


def hook_layers(tracer: SpanTracer) -> None:
    """Module- and class-level hooks; attach *before* building solvers.

    ``VCycle`` binds ``operators.apply_op`` at construction and later
    tests identity against the module attribute, so a solver must live
    entirely inside or entirely outside one patch.
    """
    hooks = tracer.hooks
    ops = hooks.module("repro.gmg.operators", "gmg.operators")
    if ops is not None:
        hooks.patch(
            ops, "apply_op",
            lambda f: tracer.wrap(
                f, lambda level, *a, **k: _level_name("gmg.apply_op", level)
            ),
            "gmg.apply_op",
        )
        hooks.patch(
            ops, "restriction",
            lambda f: tracer.wrap(
                f, lambda fine, *a, **k: _level_name("gmg.restrict", fine)
            ),
            "gmg.restrict",
        )
        hooks.patch(
            ops, "interpolation_increment",
            lambda f: tracer.wrap(
                f, lambda coarse, fine, *a, **k: _level_name("gmg.interp", fine)
            ),
            "gmg.interp",
        )
    codegen = hooks.module("repro.dsl.codegen", "dsl.apply")
    kernel_cls = getattr(codegen, "CompiledKernel", None)
    if kernel_cls is not None:
        hooks.patch(
            kernel_cls, "apply", lambda f: tracer.wrap(f, "dsl.apply"), "dsl.apply"
        )
    elif codegen is not None:
        hooks.missing["dsl.apply"] = "repro.dsl.codegen has no CompiledKernel"
    halo_plan = hooks.module("repro.bricks.halo_plan", "bricks.gather")
    plan_cls = getattr(halo_plan, "OffsetGatherPlan", None)
    if plan_cls is not None:
        hooks.patch(
            plan_cls, "gather",
            lambda f: tracer.wrap(f, "bricks.gather"),
            "bricks.gather",
        )
    elif halo_plan is not None:
        hooks.missing["bricks.gather"] = (
            "repro.bricks.halo_plan has no OffsetGatherPlan"
        )


def hook_vcycle(tracer: SpanTracer, vcycle) -> None:
    """Instance hooks on one cycle driver and its exchangers."""
    hooks = tracer.hooks
    if vcycle is None:
        hooks.missing["gmg.vcycle"] = "no vcycle attribute to hook"
        return
    hooks.patch(
        vcycle, "run", lambda f: tracer.wrap(f, "gmg.vcycle"), "gmg.vcycle"
    )
    hooks.patch(
        vcycle, "max_norm_residual",
        lambda f: tracer.wrap(f, "gmg.residual_check"),
        "gmg.residual_check",
    )

    def smooth_name(lev, *args, **kwargs):
        # the relaxation bottom solver smooths through smooth_level;
        # that time belongs to gmg.bottom, not to a smoothing visit
        return None if tracer.current == "gmg.bottom" else f"gmg.smooth.l{lev}"

    hooks.patch(
        vcycle, "smooth_level",
        lambda f: tracer.wrap(f, smooth_name),
        "gmg.smooth",
    )
    bottom = getattr(vcycle, "bottom_solver", None)
    if bottom is None:
        hooks.missing["gmg.bottom"] = "vcycle has no bottom_solver"
    else:
        hooks.patch(
            bottom, "solve", lambda f: tracer.wrap(f, "gmg.bottom"), "gmg.bottom"
        )
    exchangers = getattr(vcycle, "exchangers", None)
    if exchangers is None:
        hooks.missing["comm.exchange"] = "vcycle has no exchangers"
        return
    for lev, exchanger in enumerate(exchangers):
        name = f"comm.exchange.l{lev}"
        hooks.patch(
            exchanger, "exchange",
            lambda f, name=name: tracer.wrap(f, name),
            "comm.exchange",
        )
        # split-phase entry points exist only on some exchangers and
        # run only under overlap; absent ones are not an error
        for phase in ("begin", "finish"):
            if getattr(exchanger, phase, None) is not None:
                hooks.patch(
                    exchanger, phase,
                    lambda f, name=name: tracer.wrap(f, name),
                    f"comm.exchange.{phase}",
                )
