"""Coarse-level agglomeration: the paper's strong-scaling remedy, modelled.

Section IX proposes to "restructure the algorithm ... by exploring the
ability to pack more computation from several ranks into fewer ones to
avoid network contention or solving small size problems" — the classic
multigrid *agglomeration* technique (HPGMG does exactly this).  This
module prices it:

* below a per-rank size threshold, a level is gathered onto fewer
  ranks, by factors of 8 (one 2x coarsening of the rank grid per step),
  until the active per-rank problem is large enough or one rank holds
  everything;
* active ranks run kernels over 8x/64x/... more points (amortising the
  launch latency that strangles strong scaling) and exchange
  correspondingly larger, bandwidth-bound messages with fewer fellow
  active ranks at reduced fabric contention;
* each agglomerated level visit pays a gather on entry and a scatter on
  exit: the retired ranks' share of the level's ``x`` and ``b`` moves
  through the network at the sustained rate.

``tests/test_agglomeration.py`` asserts the paper's expectation:
agglomeration leaves the 8-node baseline untouched and meaningfully
lifts strong-scaling efficiency at high concurrency, where the latency
fraction of the V-cycle is largest.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.vcycle_sim import TimedSolve, WorkloadConfig
from repro.machines.network import exchange_time, message_time
from repro.machines.specs import MachineSpec


class AgglomeratedTimedSolve(TimedSolve):
    """A :class:`TimedSolve` that gathers small coarse levels.

    ``threshold_points`` is the minimum per-active-rank level size; a
    level below it is agglomerated by factors of 8 until it meets the
    threshold (or a single rank owns it).
    """

    def __init__(
        self,
        machine: MachineSpec,
        workload: WorkloadConfig,
        threshold_points: int = 64**3,
    ) -> None:
        super().__init__(machine, workload)
        if threshold_points < 1:
            raise ValueError(f"threshold must be positive: {threshold_points}")
        self.threshold_points = int(threshold_points)
        self._factor_cache: dict[int, int] = {}

    def agglomeration_factor(self, lev: int) -> int:
        """How many original ranks' shares one active rank holds.

        Chosen greedily per level: among factors 1, 8, 64, ... (one 2x
        rank-grid coarsening per step) the one minimising the modelled
        per-visit cost wins — agglomeration is only applied where it
        helps, which is the paper's "restructure the algorithm" spirit.
        Factor 1 is always a candidate, so the agglomerated solve can
        never be slower than the baseline at any level.
        """
        cached = self._factor_cache.get(lev)
        if cached is not None:
            return cached
        total_ranks = self.topology.size
        candidates = [1]
        while candidates[-1] * 8 <= total_ranks:
            candidates.append(candidates[-1] * 8)
        best = min(candidates, key=lambda f: self._visit_cost(lev, f))
        self._factor_cache[lev] = best
        return best

    def _visit_cost(self, lev: int, factor: int) -> float:
        """Modelled cost of one smoothing visit at agglomeration ``factor``."""
        W = self.workload
        smooths = W.bottom_smooths if lev == W.num_levels - 1 else W.max_smooths
        pts = self.levels[lev].points * factor
        t = smooths * (
            super().kernel_seconds("applyOp", lev, pts)
            + super().kernel_seconds("smooth+residual", lev, pts)
        )
        n_ex = self.exchanges_per_visit(lev, smooths)
        t += n_ex * self._exchange_at_factor(lev, factor, nfields=1)
        t += self._gather_at_factor(lev, factor)
        return t

    def active_ranks(self, lev: int) -> int:
        return max(1, self.topology.size // self.agglomeration_factor(lev))

    # ------------------------------------------------------------------
    # priced pieces with agglomeration applied
    # ------------------------------------------------------------------
    def kernel_seconds(self, op: str, lev: int, points: int | None = None) -> float:
        f = self.agglomeration_factor(lev)
        pts = self.levels[lev].points if points is None else points
        return super().kernel_seconds(op, lev, pts * f)

    def exchange_seconds(self, lev: int, nfields: int = 1) -> float:
        return self._exchange_at_factor(
            lev, self.agglomeration_factor(lev), nfields
        )

    def _exchange_at_factor(self, lev: int, f: int, nfields: int) -> float:
        if f == 1:
            return super().exchange_seconds(lev, nfields)
        geo = self.levels[lev]
        ghost = self.ghost_depth(lev)
        from repro.bricks.brick_grid import NEIGHBOR_DIRECTIONS
        from repro.machines.gpu_model import pack_time

        total_ranks = self.topology.size
        if f >= total_ranks:
            # one rank owns the level: the "exchange" is a periodic
            # wrap within device memory — one copy pass over the
            # surface, no NIC at all (the whole point of agglomeration)
            surface_factor = float(total_ranks) ** (2.0 / 3.0)
            nbytes = sum(
                geo.message_bytes(d, ghost, self.workload.itemsize)
                for d in NEIGHBOR_DIRECTIONS
            ) * nfields * surface_factor
            return pack_time(self.machine, int(nbytes))
        # the active subdomain is f^(1/3) larger per dimension: each of
        # the 26 messages grows by the surface factor f^(2/3)
        surface_factor = float(f) ** (2.0 / 3.0)
        sizes = sorted(
            (
                int(
                    geo.message_bytes(d, ghost, self.workload.itemsize)
                    * nfields
                    * surface_factor
                )
                for d in NEIGHBOR_DIRECTIONS
            ),
            reverse=True,
        )
        active = max(1, total_ranks // f)
        active_nodes = max(1, active // self.workload.ranks_per_node)
        # all-active-remote is the conservative barrier assumption
        return exchange_time(
            self.machine,
            sizes,
            [],
            num_nodes=active_nodes,
            ranks_per_node=min(self.workload.ranks_per_node, active),
        )

    def gather_scatter_seconds(self, lev: int) -> float:
        """Moving the retired ranks' level data in and back out."""
        return self._gather_at_factor(lev, self.agglomeration_factor(lev))

    def _gather_at_factor(self, lev: int, f: int) -> float:
        """Binomial-tree gather/scatter cost (as HPGMG's agglomeration):
        ``log2(f)`` stages, each stage combining pairs, with the payload
        at a stage equal to the data accumulated so far.  The barrier
        cost is the tree depth, not the fan-in."""
        import math

        if f == 1:
            return 0.0
        per_rank_bytes = self.levels[lev].points * self.workload.itemsize * 2
        depth = math.ceil(math.log2(f))
        t = 0.0
        for stage in range(depth):
            stage_bytes = per_rank_bytes * (1 << stage)
            t += message_time(
                self.machine,
                stage_bytes,
                num_nodes=self.topology.num_nodes,
                ranks_per_node=self.workload.ranks_per_node,
            )
        return 2.0 * t  # gather + scatter

    def vcycle_level_times(self) -> list[dict[str, float]]:
        times = super().vcycle_level_times()
        for lev in range(self.workload.num_levels):
            cost = self.gather_scatter_seconds(lev)
            if cost:
                visits = self.visits_per_vcycle(lev)
                times[lev]["agglomeration"] = visits * cost
        return times


@dataclass
class AgglomerationComparison:
    machine: str
    nodes: list[int]
    baseline_efficiency: list[float]
    agglomerated_efficiency: list[float]
    baseline_seconds: list[float]
    agglomerated_seconds: list[float]


def strong_scaling_with_agglomeration(
    machine_name: str, threshold_points: int = 32**3
) -> AgglomerationComparison:
    """Fig. 9 ladder with and without coarse-level agglomeration."""
    from repro.harness.experiments import (
        STRONG_GLOBAL_CELLS,
        WEAK_NODE_LADDER,
    )
    from repro.harness.vcycle_sim import decompose_for
    from repro.machines.specs import MACHINES

    machine = MACHINES[machine_name]
    rpn = machine.node.ranks_per_node
    global_cells = STRONG_GLOBAL_CELLS[machine_name]
    nodes_list = WEAK_NODE_LADDER[machine_name]
    base_secs, aggl_secs = [], []
    for nodes in nodes_list:
        ranks = nodes * rpn
        dims = decompose_for(global_cells, ranks)
        per_rank = tuple(c // d for c, d in zip(global_cells, dims))
        w = WorkloadConfig(per_rank_cells=per_rank, num_levels=6,
                           rank_dims=dims, ranks_per_node=rpn)
        base_secs.append(TimedSolve(machine, w).total_solve_time())
        aggl_secs.append(
            AgglomeratedTimedSolve(machine, w, threshold_points).total_solve_time()
        )

    def efficiencies(secs: list[float]) -> list[float]:
        base_rate = 1.0 / (secs[0] * nodes_list[0])
        return [
            (1.0 / (t * n)) / base_rate for t, n in zip(secs, nodes_list)
        ]

    return AgglomerationComparison(
        machine=machine_name,
        nodes=nodes_list,
        baseline_efficiency=efficiencies(base_secs),
        agglomerated_efficiency=efficiencies(aggl_secs),
        baseline_seconds=base_secs,
        agglomerated_seconds=aggl_secs,
    )


def render_agglomeration(result: AgglomerationComparison) -> str:
    lines = [
        f"coarse-level agglomeration on {result.machine} "
        f"(strong scaling, fixed global domain):",
        f"{'nodes':>6s} {'baseline':>10s} {'agglom.':>10s} "
        f"{'base eff':>9s} {'aggl eff':>9s}",
    ]
    for n, tb, ta, eb, ea in zip(
        result.nodes,
        result.baseline_seconds,
        result.agglomerated_seconds,
        result.baseline_efficiency,
        result.agglomerated_efficiency,
    ):
        lines.append(
            f"{n:>6d} {tb:>9.3f}s {ta:>9.3f}s {eb * 100:>8.1f}% "
            f"{ea * 100:>8.1f}%"
        )
    return "\n".join(lines) + "\n"
