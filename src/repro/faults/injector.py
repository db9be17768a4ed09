"""Applies a :class:`~repro.faults.plan.FaultPlan` during a solve.

The injector is consulted at these hook points:

* :meth:`FaultInjector.may_strike` — by
  :class:`~repro.comm.exchange.HaloExchange` once per exchange: only an
  exchange some armed message fault can strike posts per-message
  headers after its plan copy, the rest derive them;
* :meth:`FaultInjector.message_action` — before every header such an
  exchange posts (including retransmissions, so persistent specs can
  defeat retries), and by the agglomeration transfers and buddy
  checkpoints, which always post headers.  The action it returns is
  the header's fate: the channel keeps it with the header and its
  receive replays it in place;
* :meth:`FaultInjector.kernel_sdc` — by
  :class:`~repro.gmg.vcycle.VCycle` after every smoothing visit, to
  poison one interior cell of the just-written solution field;
* :meth:`FaultInjector.crashes_due` — by the resilient driver at
  V-cycle start and by the exchange/transfer channels on entry, to
  fire ``rank_crash`` specs (killing the victim's ``SimComm``
  endpoint).

The injector owns the *when are we* context (the current V-cycle index,
advanced by the resilient driver) and a hit counter per spec; all
randomness (the corrupted byte position, the poisoned cell) comes from
one generator seeded at construction, so a given plan injects an
identical fault sequence on every run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.faults.plan import FaultPlan, FaultSpec
from repro.instrument import Recorder


@dataclass(frozen=True)
class FaultAction:
    """The comm layer's marching orders for one message.

    ``corrupt_byte``/``corrupt_bit`` locate the bit flip for
    ``kind == 'corrupt'`` (chosen by the injector so the transport stays
    mechanism-only).
    """

    kind: str  # 'drop' | 'corrupt' | 'duplicate' | 'delay'
    corrupt_byte: int = 0
    corrupt_bit: int = 0


class FaultInjector:
    """Stateful executor of a fault plan for one solve."""

    def __init__(
        self, plan: FaultPlan, recorder: Recorder | None = None, seed: int = 0
    ) -> None:
        self.plan = plan
        self.recorder = recorder
        self.vcycle = 0
        self._rng = np.random.default_rng(seed)
        self._hits_left = [spec.max_hits for spec in plan]
        self.injected = 0

    # ------------------------------------------------------------------
    def begin_vcycle(self, index: int) -> None:
        """Advance the solve clock (cycle 0 is the initial residual)."""
        self.vcycle = int(index)

    def _consume(self, idx: int) -> None:
        if self._hits_left[idx] is not None:
            self._hits_left[idx] -= 1
        self.injected += 1

    def _armed(self, idx: int) -> bool:
        left = self._hits_left[idx]
        return left is None or left > 0

    @property
    def exhausted(self) -> bool:
        """True once every bounded spec has fired its full budget."""
        return all(left is not None and left == 0 for left in self._hits_left)

    # ------------------------------------------------------------------
    # hook points
    # ------------------------------------------------------------------
    def may_strike(self, level: int | None = None) -> bool:
        """Could :meth:`message_action` fault a message of an exchange
        at ``level`` (``None``: at any level) in the current V-cycle?
        True when some *armed* message-fault spec matches the cycle and
        the level: only those exchanges need headers to strike.
        ``sdc`` and ``rank_crash`` specs never do — one poisons a kernel
        output, the crash poll and the dead endpoint cover the other."""
        return any(
            self._armed(idx) and spec.matches_exchange(self.vcycle, level)
            for idx, spec in enumerate(self.plan)
        )

    def message_action(
        self,
        level: int,
        src: int,
        dst: int,
        tag: int,
        direction: tuple[int, int, int],
        nbytes: int,
    ) -> FaultAction | None:
        """Fault to apply to the message being posted, if any."""
        for idx, spec in enumerate(self.plan):
            if not self._armed(idx):
                continue
            if not spec.matches_message(self.vcycle, level, src, dst, direction):
                continue
            self._consume(idx)
            action = FaultAction(spec.kind)
            if spec.kind == "corrupt":
                action = FaultAction(
                    "corrupt",
                    corrupt_byte=int(self._rng.integers(max(nbytes, 1))),
                    corrupt_bit=int(self._rng.integers(8)),
                )
            if self.recorder is not None:
                self.recorder.fault(
                    f"inject_{spec.kind}",
                    vcycle=self.vcycle,
                    level=level,
                    rank=dst,
                    src=src,
                    tag=tag,
                    nbytes=nbytes,
                )
            return action
        return None

    def crashes_due(self, level: int | None = None) -> list[int]:
        """Ranks whose ``rank_crash`` specs fire at this poll site.

        Called with ``level=None`` by the resilient driver at V-cycle
        start and with a concrete level by the exchange/transfer
        channels on entry to their collective; each spec matches exactly
        one kind of site (see :meth:`FaultSpec.matches_crash`).
        Consumes the matching specs' hit budgets and records one
        ``inject_rank_crash`` event per victim.
        """
        victims: list[int] = []
        for idx, spec in enumerate(self.plan):
            if not self._armed(idx):
                continue
            if not spec.matches_crash(self.vcycle, level):
                continue
            self._consume(idx)
            victims.append(spec.rank)
            if self.recorder is not None:
                self.recorder.fault(
                    "inject_rank_crash",
                    vcycle=self.vcycle,
                    level=-1 if level is None else level,
                    rank=spec.rank,
                )
        return victims

    def kernel_sdc(self, level: int, rank: int, field) -> bool:
        """Poison one interior cell of ``field`` if an sdc spec matches.

        ``field`` is a :class:`~repro.bricks.bricked_array.BrickedArray`
        (the smoother's output ``x``); the poisoned cell is drawn from
        the injector's seeded generator.
        """
        for idx, spec in enumerate(self.plan):
            if not self._armed(idx):
                continue
            if not spec.matches_kernel(self.vcycle, level, rank):
                continue
            self._consume(idx)
            self._poison(field, spec)
            if self.recorder is not None:
                self.recorder.fault(
                    "inject_sdc",
                    vcycle=self.vcycle,
                    level=level,
                    rank=rank,
                    detail=f"value={spec.sdc_value!r}",
                )
            return True
        return False

    def _poison(self, field, spec: FaultSpec) -> None:
        dense = field.to_ijk()
        flat_index = int(self._rng.integers(dense.size))
        dense.flat[flat_index] = spec.sdc_value
        field.set_interior(dense)
