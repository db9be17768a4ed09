"""Deterministic fault plans.

A :class:`FaultPlan` is an ordered list of :class:`FaultSpec` entries.
Each spec is a predicate over the injection site — V-cycle index,
multigrid level, sending/receiving rank, neighbour direction — plus a
fault kind and a hit budget.  Matching is deterministic: the first spec
that matches a site and still has hits remaining fires, so a plan plus
a solver configuration fully determines every injected fault, which is
what lets tests assert recovery counts *exactly*.

``FaultPlan.random`` draws a plan from a seeded generator for sweep--
style stress tests; the draw is part of the plan's identity (same seed,
same plan), never runtime randomness.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

import numpy as np

#: Message-path fault kinds (applied at the comm layer).
MESSAGE_FAULT_KINDS = ("drop", "corrupt", "duplicate", "delay")
#: Kernel-output fault kinds (applied to the smoother's result field).
KERNEL_FAULT_KINDS = ("sdc",)
#: Process-level fault kinds (kill a rank's SimComm endpoint outright).
RANK_FAULT_KINDS = ("rank_crash",)
ALL_FAULT_KINDS = MESSAGE_FAULT_KINDS + KERNEL_FAULT_KINDS + RANK_FAULT_KINDS


@dataclass(frozen=True)
class FaultSpec:
    """One fault predicate.

    Parameters
    ----------
    kind:
        ``drop`` / ``corrupt`` / ``duplicate`` / ``delay`` for message
        faults, ``sdc`` for NaN/Inf corruption of a kernel output,
        ``rank_crash`` to kill a rank's communicator endpoint.
    vcycle, level, rank, src, direction:
        Site predicates; ``None`` matches anything.  ``rank`` is the
        receiving rank for message faults, the owning rank for ``sdc``,
        and the crashing rank for ``rank_crash`` (required there);
        ``src`` is the sending rank; ``direction`` is the sender's
        neighbour direction (a 3-tuple of -1/0/1).  A ``rank_crash``
        with ``level=None`` fires at the start of the matching V-cycle;
        with a level pinned it fires at the first *communicating* touch
        of that level (halo exchange or agglomeration transfer).
    max_hits:
        How many times this spec fires before it is exhausted.
        ``None`` means unlimited — a *persistent* fault that defeats
        retransmission and exercises the recovery budget.
    sdc_value:
        The poison written by an ``sdc`` fault (NaN by default; use
        ``float('inf')`` for overflow-style corruption).
    """

    kind: str
    vcycle: int | None = None
    level: int | None = None
    rank: int | None = None
    src: int | None = None
    direction: tuple[int, int, int] | None = None
    max_hits: int | None = 1
    sdc_value: float = float("nan")
    #: match any vcycle >= this (for persistent faults that must keep
    #: striking across checkpoint rollbacks, whose re-executed cycles
    #: advance the solve clock past any single ``vcycle`` pin)
    vcycle_from: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ALL_FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {ALL_FAULT_KINDS}"
            )
        if self.max_hits is not None and self.max_hits < 1:
            raise ValueError(f"max_hits must be positive or None: {self.max_hits}")
        for name in ("vcycle", "vcycle_from", "level", "rank", "src"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(
                    f"{name} must be non-negative (the spec could never "
                    f"fire): {name}={value}"
                )
        if self.kind in RANK_FAULT_KINDS:
            if self.rank is None:
                raise ValueError(
                    "rank_crash specs must name the crashing rank"
                )
            if self.src is not None or self.direction is not None:
                raise ValueError(
                    "rank_crash kills a whole endpoint; src/direction "
                    "predicates do not apply"
                )
        if self.direction is not None:
            d = tuple(int(c) for c in self.direction)
            if len(d) != 3 or any(c not in (-1, 0, 1) for c in d) or d == (0, 0, 0):
                raise ValueError(f"direction must be a nonzero -1/0/1 triple: {d}")
            object.__setattr__(self, "direction", d)

    @property
    def is_message_fault(self) -> bool:
        return self.kind in MESSAGE_FAULT_KINDS

    @property
    def persistent(self) -> bool:
        return self.max_hits is None

    def matches_exchange(self, vcycle: int, level: int | None) -> bool:
        """Could this spec strike some message of an exchange at
        ``level`` (``None``: at any level) during ``vcycle``?  The site
        half of :meth:`matches_message`, without the per-message
        ``src``/``rank``/``direction`` predicates."""
        return (
            self.is_message_fault
            and (self.vcycle is None or self.vcycle == vcycle)
            and (self.vcycle_from is None or vcycle >= self.vcycle_from)
            and (level is None or self.level is None or self.level == level)
        )

    def matches_message(
        self,
        vcycle: int,
        level: int,
        src: int,
        dst: int,
        direction: tuple[int, int, int] | None,
    ) -> bool:
        return self.matches_exchange(vcycle, level) and self.matches_row(
            level, src, dst, direction
        )

    def matches_row(
        self,
        level: int,
        src: int,
        dst: int,
        direction: tuple[int, int, int] | None,
    ) -> bool:
        """Could this spec strike the message ``src -> dst`` along
        ``direction`` at ``level`` in some V-cycle?"""
        # direction is None for messages with no halo geometry (the
        # agglomeration gather/scatter, buddy replicas): a
        # direction-pinned spec never matches those, a direction-free
        # spec matches them normally.
        return (
            self.is_message_fault
            and (self.level is None or self.level == level)
            and (self.src is None or self.src == src)
            and (self.rank is None or self.rank == dst)
            and (
                self.direction is None
                or (direction is not None
                    and self.direction == tuple(direction))
            )
        )

    def matches_kernel(self, vcycle: int, level: int, rank: int) -> bool:
        return (
            self.kind == "sdc"
            and (self.vcycle is None or self.vcycle == vcycle)
            and (self.vcycle_from is None or vcycle >= self.vcycle_from)
            and (self.level is None or self.level == level)
            and (self.rank is None or self.rank == rank)
        )

    def matches_crash(self, vcycle: int, level: int | None) -> bool:
        """Does this crash spec fire at the given poll site?

        The driver polls with ``level=None`` at V-cycle start (matching
        level-free specs only); the exchange/transfer channels poll with
        their level (matching only specs pinned to it), so each spec
        fires at exactly one kind of site.
        """
        return (
            self.kind in RANK_FAULT_KINDS
            and (self.vcycle is None or self.vcycle == vcycle)
            and (self.vcycle_from is None or vcycle >= self.vcycle_from)
            and self.level == level
        )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable collection of fault specs."""

    specs: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    @property
    def empty(self) -> bool:
        return not self.specs

    @property
    def total_planned_hits(self) -> int | None:
        """Sum of hit budgets, or ``None`` if any spec is persistent."""
        total = 0
        for spec in self.specs:
            if spec.max_hits is None:
                return None
            total += spec.max_hits
        return total

    def with_specs(self, extra: Iterable[FaultSpec]) -> "FaultPlan":
        return replace(self, specs=self.specs + tuple(extra))

    def validate_for(
        self,
        num_ranks: int,
        num_levels: int | None = None,
        active_ranks=None,
        message_rows=None,
    ) -> "FaultPlan":
        """Reject specs that could never fire on the given solver shape.

        A spec naming a rank or level outside the communicator/hierarchy
        would silently sit in the plan forever; failing loudly at
        construction time is the only way a typo in a chaos matrix gets
        noticed.  ``active_ranks[level]`` lists the ranks that compute
        ``level`` when agglomeration idles the others: an ``sdc`` spec
        pinned to an idle ``(level, rank)`` has no kernel output to
        poison.  ``message_rows`` lists ``(level, src, dst, direction)``
        of every message the solve posts a header for — plan messages
        on a communicator of more than one rank, transfer blocks, buddy
        replicas: a message spec none of them matches has nothing to
        strike.  Returns ``self`` so callers can chain.
        """
        rows = None if message_rows is None else list(message_rows)
        for i, spec in enumerate(self.specs):
            for attr in ("rank", "src"):
                value = getattr(spec, attr)
                if value is not None and value >= num_ranks:
                    raise ValueError(
                        f"spec {i} ({spec.kind}): {attr}={value} out of "
                        f"range for a {num_ranks}-rank communicator — "
                        "the spec could never fire"
                    )
            if (
                num_levels is not None
                and spec.level is not None
                and spec.level >= num_levels
            ):
                raise ValueError(
                    f"spec {i} ({spec.kind}): level={spec.level} out of "
                    f"range for a {num_levels}-level hierarchy — the "
                    "spec could never fire"
                )
            if (
                active_ranks is not None
                and spec.kind in KERNEL_FAULT_KINDS
                and spec.level is not None
                and spec.rank is not None
                and spec.rank not in active_ranks[spec.level]
            ):
                raise ValueError(
                    f"spec {i} ({spec.kind}): rank={spec.rank} computes "
                    f"nothing at level={spec.level} — agglomeration "
                    f"leaves that level to ranks "
                    f"{list(active_ranks[spec.level])} — the spec could "
                    "never fire"
                )
            if (
                rows is not None
                and spec.is_message_fault
                and not any(spec.matches_row(*row) for row in rows)
            ):
                pinned = ", ".join(
                    f"{attr}={getattr(spec, attr)}"
                    for attr in ("level", "src", "rank", "direction")
                    if getattr(spec, attr) is not None
                ) or "no site predicate"
                raise ValueError(
                    f"spec {i} ({spec.kind}): {pinned} matches no message "
                    f"this solve posts ({len(rows)} plan messages, transfer "
                    "blocks and buddy replicas; a communicator of one rank "
                    "posts none) — the spec could never fire"
                )
            if spec.kind in RANK_FAULT_KINDS and num_ranks < 2:
                raise ValueError(
                    f"spec {i}: rank_crash needs a distributed solve "
                    "(>= 2 ranks) — a single-rank crash leaves no "
                    "survivors to run the recovery"
                )
        return self

    @classmethod
    def single(cls, kind: str, **kwargs) -> "FaultPlan":
        """A plan with one spec (convenience for tests and sweeps)."""
        return cls(specs=(FaultSpec(kind, **kwargs),))

    @classmethod
    def random(
        cls,
        seed: int,
        num_faults: int,
        kinds: tuple[str, ...] = MESSAGE_FAULT_KINDS,
        vcycles: tuple[int, int] = (1, 4),
        levels: tuple[int, ...] = (0,),
        num_ranks: int = 1,
    ) -> "FaultPlan":
        """A seeded burst of one-shot faults.

        Every draw comes from ``np.random.default_rng(seed)``, so the
        plan — and therefore the whole injected-fault schedule — is a
        pure function of its arguments.
        """
        if num_faults < 0:
            raise ValueError(f"num_faults must be non-negative: {num_faults}")
        for k in kinds:
            if k not in ALL_FAULT_KINDS:
                raise ValueError(f"unknown fault kind {k!r}")
        rng = np.random.default_rng(seed)
        specs = []
        for _ in range(num_faults):
            kind = kinds[int(rng.integers(len(kinds)))]
            spec = FaultSpec(
                kind=kind,
                vcycle=int(rng.integers(vcycles[0], vcycles[1] + 1)),
                level=int(levels[int(rng.integers(len(levels)))]),
                rank=int(rng.integers(num_ranks)) if kind == "sdc" else None,
                max_hits=1,
            )
            specs.append(spec)
        return cls(specs=tuple(specs))
