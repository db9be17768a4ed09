"""Detection, checkpoint/rollback, rank repair, and graceful degradation.

:class:`ResilientDriver` wraps the V-cycle residual loop (Algorithm 1)
with a fault-management state machine:

* **detect** — comm-layer anomalies surface as
  :class:`~repro.comm.exchange.ExchangeFaultError` once the exchange's
  retry budget is spent; numeric anomalies surface in the residual loop
  as NaN/Inf (silent data corruption reaching the convergence check),
  divergence (residual blowing past its best value), or stagnation;
  rank crashes surface as :class:`~repro.comm.simmpi.RankDeadError`
  from the first collective that touches the dead endpoint — the
  per-cycle residual reduction guarantees detection within one cycle;
* **retry** — handled inside :class:`~repro.comm.exchange.HaloExchange`
  (checksum validation plus bounded retransmission), invisible here
  except through the recorder;
* **rollback** — the finest-level solution is checkpointed every
  ``checkpoint_interval`` clean V-cycles; on an unrecoverable anomaly
  the solve restores the checkpoint, discards in-flight messages, and
  re-runs the lost cycles (deterministically, since the injector's
  one-shot specs have already fired);
* **repair** — for rank crashes: survivors agree on the dead set
  (ULFM ``MPIX_Comm_agree``), the communicator is repaired in place
  (revoke + shrink + respawn collapsed into one lockstep step), the
  exchange machinery is rebuilt, and the dead rank's finest-level
  bricks are adopted from its buddy replica
  (:class:`~repro.faults.buddy.BuddyCheckpointer`) while survivors
  roll back to the same coordinated checkpoint — so the replay is
  bit-identical to a crash-free solve from that checkpoint.  When no
  usable replica exists (the buddy died too, or the crash predates the
  first checkpoint) the ladder escalates to a **global restart**:
  deterministic state re-initialisation and a fresh solve from cycle
  zero;
* **degrade** — a bounded ``recovery_budget`` of recoveries; once
  spent, the solve stops with ``status='failed_faults'`` instead of
  raising.

The driver performs exactly the same numeric operations per cycle as
:meth:`repro.gmg.vcycle.VCycle.solve`, so with no faults injected its
results are bit-identical to the plain path (buddy shipping copies
state but never touches it).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.comm.exchange import ExchangeFaultError
from repro.comm.simmpi import RankDeadError
from repro.faults.injector import FaultInjector
from repro.instrument import Recorder
from repro.obs.tracer import NULL_TRACER

STATUS_CONVERGED = "converged"
STATUS_MAX_VCYCLES = "max_vcycles"
STATUS_DIVERGED = "diverged"
STATUS_FAILED_FAULTS = "failed_faults"

SOLVE_STATUSES = (
    STATUS_CONVERGED,
    STATUS_MAX_VCYCLES,
    STATUS_DIVERGED,
    STATUS_FAILED_FAULTS,
)


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the detect → retry → rollback/repair → degrade pipeline."""

    #: retransmission attempts per receive before the exchange gives up
    max_retries: int = 3
    #: clean V-cycles between finest-level solution checkpoints
    checkpoint_interval: int = 2
    #: recoveries (rollbacks, rank repairs, restarts) allowed before
    #: degrading to ``failed_faults``
    recovery_budget: int = 3
    #: residual exceeding ``divergence_factor × best-so-far`` is an anomaly
    divergence_factor: float = 1e3
    #: cycles with < ``stagnation_tol`` relative improvement → stagnation
    stagnation_window: int = 8
    stagnation_tol: float = 1e-3
    #: replicate each checkpoint onto a buddy rank so a rank crash can
    #: be repaired in place instead of forcing a global restart
    buddy_checkpoints: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 1:
            raise ValueError(f"max_retries must be positive: {self.max_retries}")
        if self.checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval must be positive: {self.checkpoint_interval}"
            )
        if self.recovery_budget < 0:
            raise ValueError(
                f"recovery_budget must be non-negative: {self.recovery_budget}"
            )
        if self.divergence_factor <= 1.0:
            raise ValueError(
                f"divergence_factor must exceed 1: {self.divergence_factor}"
            )
        if self.stagnation_window < 2:
            raise ValueError(
                f"stagnation_window must be at least 2: {self.stagnation_window}"
            )


@dataclass
class _Checkpoint:
    """Finest-level solution snapshot plus the history that led to it."""

    cycle: int
    x_by_rank: list[np.ndarray]
    history: list[float]

    @property
    def nbytes(self) -> int:
        return sum(x.nbytes for x in self.x_by_rank)


@dataclass
class ResilientOutcome:
    """What the driver hands back to :class:`~repro.gmg.solver.GMGSolver`."""

    status: str
    residual_history: list[float]
    executed_vcycles: int
    rollbacks: int = 0
    #: ranks that crashed and were brought back (deduplicated, sorted)
    recovered_ranks: list[int] = field(default_factory=list)
    #: wall time spent inside rank repair (mean-time-to-repair total)
    mttr_s: float = 0.0
    #: bytes of dead-rank state adopted from buddy replicas
    bytes_restored: int = 0
    #: committed V-cycles discarded by crash recoveries
    cycles_lost: int = 0

    @property
    def converged(self) -> bool:
        return self.status == STATUS_CONVERGED

    @property
    def clean_vcycles(self) -> int:
        """Cycles surviving in the committed history (rolled-back work
        excluded)."""
        return max(len(self.residual_history) - 1, 0)


class ResilientDriver:
    """Runs Algorithm 1 under the fault model.

    Parameters
    ----------
    vcycle:
        The :class:`~repro.gmg.vcycle.VCycle` to drive.
    config:
        A :class:`ResilienceConfig`.
    injector:
        The active :class:`~repro.faults.injector.FaultInjector`, or
        ``None`` when only hardening (no injection) is wanted.
    recorder:
        Shared :class:`~repro.instrument.Recorder` for fault events.
    comm:
        The :class:`~repro.comm.simmpi.SimComm`, or ``None`` for
        single-rank runs (needed to purge in-flight messages on
        rollback and to repair after a rank crash).
    buddy:
        A :class:`~repro.faults.buddy.BuddyCheckpointer`, or ``None``
        to disable the buddy rung (crashes then escalate straight to a
        global restart).
    rebuild_channels:
        Zero-argument callable that rebuilds every exchange channel
        after a communicator repair (fresh exchangers, cleared
        envelope state); supplied by the solver.
    restart_state:
        Zero-argument callable that deterministically re-initialises
        the solve state (zero guess, analytic right-hand side) for the
        global-restart rung; supplied by the solver.
    tracer:
        Optional tracer; repairs run inside a ``rank-repair`` span.
    """

    def __init__(
        self,
        vcycle,
        config: ResilienceConfig,
        injector: FaultInjector | None = None,
        recorder: Recorder | None = None,
        comm=None,
        buddy=None,
        rebuild_channels=None,
        restart_state=None,
        tracer=None,
    ) -> None:
        self.vcycle = vcycle
        self.config = config
        self.injector = injector
        self.recorder = recorder
        self.comm = comm
        self.buddy = buddy
        self.rebuild_channels = rebuild_channels
        self.restart_state = restart_state
        self.tracer = tracer or NULL_TRACER
        self.recovered_ranks: list[int] = []
        self.mttr_s = 0.0
        self.bytes_restored = 0
        self.cycles_lost = 0

    # ------------------------------------------------------------------
    def _fault(self, kind: str, vcycle: int, **kw) -> None:
        if self.recorder is not None:
            self.recorder.fault(kind, vcycle=vcycle, **kw)

    def _snapshot(self, cycle: int, history: list[float]) -> _Checkpoint:
        ckpt = _Checkpoint(
            cycle=cycle,
            x_by_rank=[lv.x.data.copy() for lv in self.vcycle.depths[0].level.blocks()],
            history=list(history),
        )
        self._fault("checkpoint", cycle, nbytes=ckpt.nbytes)
        if self.buddy is not None:
            # Ship inside the snapshot so the replica cycle always
            # matches the local checkpoint cycle (coordinated pair).
            self.buddy.ship(cycle, ckpt.x_by_rank)
        return ckpt

    def _restore(self, ckpt: _Checkpoint, at_cycle: int, reason: str) -> list[float]:
        for lv, saved in zip(self.vcycle.depths[0].level.blocks(), ckpt.x_by_rank):
            lv.x.data[...] = saved
        purged = 0
        if self.comm is not None:
            purged = self.comm.reset_in_flight()
            if purged:
                self._fault("purge", at_cycle, detail=f"{purged} messages")
        self._fault(
            "rollback",
            at_cycle,
            nbytes=ckpt.nbytes,
            detail=f"{reason}; restored checkpoint of cycle {ckpt.cycle}",
        )
        return list(ckpt.history)

    def _begin_vcycle(self, index: int) -> None:
        if self.injector is not None:
            self.injector.begin_vcycle(index)

    def _poll_crashes(self) -> None:
        """Fire level-free ``rank_crash`` specs at V-cycle start."""
        if self.injector is None or self.comm is None:
            return
        for rank in self.injector.crashes_due(None):
            self.comm.kill(rank)

    def _stagnated(self, history: list[float]) -> bool:
        w = self.config.stagnation_window
        if len(history) <= w:
            return False
        old, new = history[-1 - w], history[-1]
        if old <= 0:
            return False
        return (old - new) / old < self.config.stagnation_tol

    # ------------------------------------------------------------------
    def _recover_ranks(
        self,
        at_cycle: int,
        ckpt: _Checkpoint | None,
        history: list[float],
    ) -> list[float] | None:
        """Rungs two and three of the ladder: buddy restore, then
        global restart.

        Returns the restored residual history for the buddy rung, an
        empty list when the state was globally restarted (the caller
        re-derives the initial residual), or ``None`` when neither rung
        is available (no communicator, or no restart hook) — the caller
        then degrades to ``failed_faults``.
        """
        if self.comm is None:
            return None
        t0 = time.perf_counter()
        dead = list(self.comm.agree_dead())
        replicas: dict[int, np.ndarray] = {}
        if self.buddy is not None:
            self.buddy.invalidate(dead)
            for r in dead:
                snap = self.buddy.snapshot_for(r)
                if snap is not None and ckpt is not None and snap[0] == ckpt.cycle:
                    replicas[r] = snap[1]
        with self.tracer.span("rank-repair", cycle=at_cycle, dead=len(dead)):
            purged = self.comm.repair(revive=dead)
            if purged:
                self._fault("purge", at_cycle, detail=f"{purged} messages")
            if self.rebuild_channels is not None:
                self.rebuild_channels()
            self._fault(
                "comm_repair",
                at_cycle,
                detail=(
                    f"revived ranks {dead}; {purged} in-flight messages "
                    "discarded"
                ),
            )
            for r in dead:
                if r not in self.recovered_ranks:
                    self.recovered_ranks.append(r)
            self.recovered_ranks.sort()
            if ckpt is not None and len(replicas) == len(dead):
                # Buddy rung: adopt the dead ranks' replicas, roll the
                # survivors back to the same coordinated checkpoint.
                for rank, lv in enumerate(self.vcycle.depths[0].level.blocks()):
                    saved = replicas.get(rank)
                    if saved is None:
                        saved = ckpt.x_by_rank[rank]
                    lv.x.data[...] = saved
                restored = 0
                for r in dead:
                    nbytes = int(replicas[r].nbytes)
                    restored += nbytes
                    self._fault(
                        "buddy_restore", at_cycle, rank=r, nbytes=nbytes,
                        detail=f"replica of cycle {ckpt.cycle}",
                    )
                self.bytes_restored += restored
                self.cycles_lost += (len(history) - 1 - ckpt.cycle) + 1
                self._fault(
                    "rollback", at_cycle, nbytes=ckpt.nbytes,
                    detail=(
                        "rank crash; restored checkpoint of cycle "
                        f"{ckpt.cycle}"
                    ),
                )
                out: list[float] | None = list(ckpt.history)
            elif self.restart_state is not None:
                # Global-restart rung: deterministic re-initialisation.
                missing = sorted(set(dead) - set(replicas))
                self.restart_state()
                self._fault(
                    "global_restart", at_cycle,
                    detail=(
                        f"no usable replica for ranks {missing}"
                        if missing
                        else "crash before the first checkpoint"
                    ),
                )
                self.cycles_lost += len(history) or 1
                out = []
            else:
                out = None
        self.mttr_s += time.perf_counter() - t0
        return out

    def _outcome(
        self, status: str, history: list[float], executed: int, rollbacks: int
    ) -> ResilientOutcome:
        return ResilientOutcome(
            status, history, executed, rollbacks,
            recovered_ranks=list(self.recovered_ranks),
            mttr_s=self.mttr_s,
            bytes_restored=self.bytes_restored,
            cycles_lost=self.cycles_lost,
        )

    # ------------------------------------------------------------------
    def solve(self, tol: float, max_vcycles: int) -> ResilientOutcome:
        """Run to convergence, ``max_vcycles``, or fault exhaustion.

        Never raises on injected faults: every anomaly is detected,
        retried/rolled back/repaired while budget remains, and
        converted into a structured status otherwise.  ``history is
        None`` marks "solve state needs (re)establishing" — entered at
        solve start and re-entered after a global restart.
        """
        cfg = self.config
        executed = 0
        rollbacks = 0
        budget = cfg.recovery_budget
        history: list[float] | None = None
        ckpt: _Checkpoint | None = None
        while True:
            if history is None:
                self._begin_vcycle(0)
                self._poll_crashes()
                try:
                    history = [self.vcycle.max_norm_residual()]
                except ExchangeFaultError as exc:
                    self._fault("give_up", 0, level=exc.level, rank=exc.rank,
                                src=exc.src, detail="initial residual unavailable")
                    return self._outcome(STATUS_FAILED_FAULTS, [], executed, rollbacks)
                except RankDeadError as exc:
                    self._fault("detect_rank_crash", 0, rank=exc.rank)
                    if budget <= 0:
                        self._fault("give_up", 0, rank=exc.rank,
                                    detail="rank crash with no recovery budget")
                        return self._outcome(
                            STATUS_FAILED_FAULTS, [], executed, rollbacks
                        )
                    budget -= 1
                    rollbacks += 1
                    if self._recover_ranks(0, None, []) is None:
                        self._fault("give_up", 0, rank=exc.rank,
                                    detail="unrecoverable rank crash")
                        return self._outcome(
                            STATUS_FAILED_FAULTS, [], executed, rollbacks
                        )
                    history = None  # re-derive from the restarted state
                    continue
                ckpt = self._snapshot(0, history)
            if history[-1] <= tol:
                return self._outcome(STATUS_CONVERGED, history, executed, rollbacks)
            if len(history) - 1 >= max_vcycles:
                return self._outcome(
                    STATUS_MAX_VCYCLES, history, executed, rollbacks
                )
            executed += 1
            self._begin_vcycle(executed)
            self._poll_crashes()
            anomaly = None
            crash: RankDeadError | None = None
            try:
                if self.injector is not None:
                    # Injected NaN/Inf propagating through the stencil
                    # kernels is the *point* of the SDC model, not a
                    # numpy warning condition.
                    with np.errstate(invalid="ignore", over="ignore"):
                        self.vcycle.run()
                        res = self.vcycle.max_norm_residual()
                else:
                    self.vcycle.run()
                    res = self.vcycle.max_norm_residual()
            except ExchangeFaultError as exc:
                anomaly = (
                    f"exchange fault at level {exc.level} "
                    f"(rank {exc.rank} ← rank {exc.src})"
                )
                res = math.nan
            except RankDeadError as exc:
                crash = exc
                anomaly = f"rank {exc.rank} crashed"
                self._fault("detect_rank_crash", executed, rank=exc.rank)
                res = math.nan
            if anomaly is None and not math.isfinite(res):
                anomaly = f"non-finite residual {res!r}"
                self._fault("detect_sdc", executed, detail=anomaly)
            best = min(history)
            if anomaly is None and best > 0 and res > cfg.divergence_factor * best:
                anomaly = (
                    f"residual {res:.3e} exceeds {cfg.divergence_factor:g}x "
                    f"best {best:.3e}"
                )
                self._fault("detect_divergence", executed, detail=anomaly)
                if self.injector is None:
                    # Plain divergence with no faults in play is a
                    # numerics problem; rolling back cannot fix it.
                    return self._outcome(
                        STATUS_DIVERGED, history, executed, rollbacks
                    )
            if anomaly is not None:
                if budget <= 0:
                    self._fault("give_up", executed, detail=anomaly)
                    return self._outcome(
                        STATUS_FAILED_FAULTS, history, executed, rollbacks
                    )
                budget -= 1
                rollbacks += 1
                if crash is not None:
                    restored = self._recover_ranks(executed, ckpt, history)
                    if restored is None:
                        self._fault("give_up", executed, rank=crash.rank,
                                    detail="unrecoverable rank crash")
                        return self._outcome(
                            STATUS_FAILED_FAULTS, history, executed, rollbacks
                        )
                    if restored:
                        history = restored
                    else:
                        history = None  # global restart: re-derive state
                        ckpt = None
                    continue
                history = self._restore(ckpt, executed, anomaly)
                continue
            history.append(res)
            if self._stagnated(history):
                self._fault(
                    "detect_stagnation",
                    executed,
                    detail=(
                        f"<{cfg.stagnation_tol:g} relative progress over "
                        f"{cfg.stagnation_window} cycles"
                    ),
                )
                return self._outcome(STATUS_DIVERGED, history, executed, rollbacks)
            clean = len(history) - 1
            if clean - ckpt.cycle >= cfg.checkpoint_interval:
                ckpt = self._snapshot(clean, history)
