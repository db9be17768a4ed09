"""Fault injection, detection, and recovery for the distributed solver.

The paper scales the brick-based V-cycle to 512 GPUs, a regime where
dropped or corrupted ghost-exchange messages and silent data corruption
in kernel outputs are operational realities.  This package makes every
resilience claim testable:

* :mod:`~repro.faults.plan` — :class:`FaultSpec`/:class:`FaultPlan`:
  seeded, deterministic descriptions of *which* faults strike *where*
  (by V-cycle, level, rank, and neighbour direction);
* :mod:`~repro.faults.injector` — :class:`FaultInjector`: applies a
  plan at the comm layer (draws a drop / bit-flip / duplicate / delay
  for a header as it is posted, which its receive replays), at kernel
  outputs (NaN/Inf silent data corruption), and at the process level
  (``rank_crash`` killing a communicator endpoint);
* :mod:`~repro.faults.recovery` — :class:`ResilienceConfig` and
  :class:`ResilientDriver`: checksummed receives with bounded retry,
  residual-loop health checks, checkpoint/rollback of the finest-level
  solution, ULFM-style communicator repair with buddy restore for rank
  crashes, and graceful degradation to a ``failed_faults`` status;
* :mod:`~repro.faults.buddy` — :class:`BuddyCheckpointer`: replicates
  each rank's checkpoints onto an off-node partner so a crashed rank's
  state survives it;
* :mod:`~repro.faults.pricing` — prices retries, checkpoints, and
  rollbacks through the machine/network models so resilience overhead
  appears in the same units as the paper's figures;
* :mod:`~repro.faults.scenarios` — the fault scenario table: one
  runner and one pass rule for the ``python -m repro faultsweep``
  battery and the ``python -m repro chaossweep`` rank-crash matrix.
"""

from repro.faults.buddy import BuddyCheckpointer
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FaultPlan,
    FaultSpec,
    MESSAGE_FAULT_KINDS,
    RANK_FAULT_KINDS,
)
from repro.faults.recovery import (
    STATUS_CONVERGED,
    STATUS_DIVERGED,
    STATUS_FAILED_FAULTS,
    STATUS_MAX_VCYCLES,
    ResilienceConfig,
    ResilientDriver,
)

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "BuddyCheckpointer",
    "MESSAGE_FAULT_KINDS",
    "RANK_FAULT_KINDS",
    "ResilienceConfig",
    "ResilientDriver",
    "STATUS_CONVERGED",
    "STATUS_MAX_VCYCLES",
    "STATUS_DIVERGED",
    "STATUS_FAILED_FAULTS",
]
