"""Configuration auto-tuning over the machine model.

The paper sets brick sizes "according to our observations" (8^3 on
Perlmutter/Frontier, 4^3 on Sunspot) and hand-picks the mapping,
protocol and CA settings per machine.  This module automates the
search: it sweeps the discrete configuration space through the timed
model and reports the ranking, giving the ablation benches a
machine-picked best configuration to compare against the paper's
choices.

The model prices communication effects of the brick size (message
volume vs exchange frequency) but not the per-brick kernel-efficiency
differences the paper's silicon measurements capture, so the tuner's
brick-size choice can legitimately differ from the paper's — the
ablation bench documents exactly that.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from repro.harness.vcycle_sim import TimedSolve, WorkloadConfig
from repro.machines.specs import MachineSpec


@dataclass(frozen=True)
class TuningChoice:
    """One point of the configuration space with its predicted time."""

    brick_dim: int
    ordering: str
    communication_avoiding: bool
    gpu_aware: bool
    vcycle_seconds: float

    def label(self) -> str:
        return (
            f"brick={self.brick_dim} {self.ordering} "
            f"{'CA' if self.communication_avoiding else 'no-CA'} "
            f"{'gpu-aware' if self.gpu_aware else 'host-staged'}"
        )


@dataclass
class TuningResult:
    """Ranked configurations for one machine/workload."""

    machine: str
    choices: list[TuningChoice]  # sorted fastest first

    @property
    def best(self) -> TuningChoice:
        return self.choices[0]

    @property
    def worst(self) -> TuningChoice:
        return self.choices[-1]

    @property
    def tuning_headroom(self) -> float:
        """Worst/best time ratio across the space."""
        return self.worst.vcycle_seconds / self.best.vcycle_seconds


def autotune(
    machine: MachineSpec,
    workload: WorkloadConfig | None = None,
    brick_dims: tuple[int, ...] = (2, 4, 8, 16),
    orderings: tuple[str, ...] = ("surface-major", "lexicographic"),
) -> TuningResult:
    """Exhaustively price the configuration space and rank it."""
    workload = workload or WorkloadConfig()
    choices = []
    for brick, ordering, ca, aware in itertools.product(
        brick_dims, orderings, (True, False), (True, False)
    ):
        w = replace(
            workload,
            brick_dim=brick,
            ordering=ordering,
            communication_avoiding=ca,
            gpu_aware=aware,
        )
        t = TimedSolve(machine, w).time_per_vcycle()
        choices.append(
            TuningChoice(
                brick_dim=brick,
                ordering=ordering,
                communication_avoiding=ca,
                gpu_aware=aware,
                vcycle_seconds=t,
            )
        )
    choices.sort(key=lambda c: c.vcycle_seconds)
    return TuningResult(machine=machine.name, choices=choices)


def render_tuning(result: TuningResult, top: int = 8) -> str:
    """Human-readable ranking (fastest ``top`` plus the worst)."""
    lines = [f"auto-tuning on {result.machine} "
             f"(headroom {result.tuning_headroom:.2f}x):"]
    for c in result.choices[:top]:
        lines.append(f"  {c.vcycle_seconds * 1e3:8.1f} ms  {c.label()}")
    lines.append("  ...")
    c = result.worst
    lines.append(f"  {c.vcycle_seconds * 1e3:8.1f} ms  {c.label()}  (worst)")
    return "\n".join(lines) + "\n"
