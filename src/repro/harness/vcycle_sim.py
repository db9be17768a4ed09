"""Analytic timed V-cycle: exact operation counts, modelled times.

The functional solver executes real numerics at laptop scale; the
paper's experiments run 512^3 points per rank on up to 512 GPUs, far
beyond what Python can execute directly.  This module prices the
*exact* schedule of Algorithm 2 — the same kernel-invocation and
message counts the functional solver records (a test asserts equality
on overlapping scales) — using the calibrated machine models.

The result object exposes per-level/per-operation times (Fig. 3,
Table II), per-invocation kernel and exchange rates (Figs. 5/6),
V-cycle and total solve time (Fig. 4), and the GStencil/s throughput
metric of the scaling studies (Figs. 8/9), defined as total
finest-level cells divided by total solve time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

from repro.bricks.brick_grid import NEIGHBOR_DIRECTIONS
from repro.comm.topology import CartTopology
from repro.gmg.level import ghost_shell_bricks, level_brick_dim
from repro.machines.gpu_model import kernel_time, pack_time
from repro.machines.network import allreduce_time, exchange_time
from repro.machines.specs import MachineSpec

#: Operations shown in the paper's per-level breakdowns.
BREAKDOWN_OPS = (
    "applyOp",
    "smooth",
    "smooth+residual",
    "restriction",
    "interpolation+increment",
    "exchange",
)


def decompose_for(
    global_cells: tuple[int, int, int], num_ranks: int
) -> tuple[int, int, int]:
    """Rank-grid factorisation of ``num_ranks`` dividing ``global_cells``.

    Greedy: peel prime factors largest-first onto the dimension that
    keeps subdomains most cubic among the dimensions the factor
    divides.  Raises if no valid decomposition exists.
    """
    if num_ranks < 1:
        raise ValueError(f"num_ranks must be positive: {num_ranks}")
    factors = []
    m, f = num_ranks, 2
    while m > 1:
        while m % f == 0:
            factors.append(f)
            m //= f
        f += 1 if f == 2 else 2
        if f * f > m and m > 1:
            factors.append(m)
            break
    dims = [1, 1, 1]
    cells = list(global_cells)
    for p in sorted(factors, reverse=True):
        candidates = [d for d in range(3) if cells[d] % p == 0]
        if not candidates:
            raise ValueError(
                f"cannot decompose {global_cells} over {num_ranks} ranks: "
                f"prime factor {p} divides no dimension"
            )
        d = max(candidates, key=lambda d: cells[d])
        dims[d] *= p
        cells[d] //= p
    return tuple(dims)


@dataclass(frozen=True)
class WorkloadConfig:
    """One experiment's workload (defaults: the paper's 8-node run)."""

    per_rank_cells: tuple[int, int, int] = (512, 512, 512)
    num_levels: int = 6
    max_smooths: int = 12
    bottom_smooths: int = 100
    num_vcycles: int = 12  # paper: "converged in 12 V-cycles"
    rank_dims: tuple[int, int, int] = (2, 2, 2)
    ranks_per_node: int = 1  # Section VI experiments bind 1 rank/node
    communication_avoiding: bool = True
    ordering: str = "surface-major"
    brick_dim: int | None = None  # None -> the machine's default
    gpu_aware: bool | None = None  # None -> the machine's default
    baseline: bool = False  # HPGMG-style array layout, no CA
    #: throughput haircut of the conventional layout's kernels relative
    #: to bricks (extra address streams / ghost copies); the memsim
    #: package measures this ratio from first principles and the Fig. 4
    #: bench feeds its measurement in here.
    baseline_layout_factor: float = 0.75
    #: extra DRAM bytes per point the HPGMG-FV baseline moves relative
    #: to the constant-coefficient brick kernels: HPGMG's second-order
    #: FV operator carries variable coefficients (three face-centred
    #: beta arrays plus alpha) that stream alongside x/b/r.
    baseline_traffic_factor: float = 1.45
    #: field precision: "fp64" (paper) or "fp32" (mixed-precision inner
    #: cycles): every byte count — kernel traffic and message payloads —
    #: halves, which is the whole bandwidth-bound speedup story of the
    #: paper's reference [28].
    precision: str = "fp64"

    def __post_init__(self) -> None:
        if self.num_levels < 1 or self.max_smooths < 1 or self.bottom_smooths < 1:
            raise ValueError("levels and smooth counts must be positive")
        for c in self.per_rank_cells:
            if c % (1 << (self.num_levels - 1)):
                raise ValueError(
                    f"per-rank cells {self.per_rank_cells} not divisible by "
                    f"2^{self.num_levels - 1}"
                )
        if not 0 < self.baseline_layout_factor <= 1:
            raise ValueError("baseline_layout_factor must be in (0, 1]")
        if self.precision not in ("fp64", "fp32"):
            raise ValueError(
                f"precision must be 'fp64' or 'fp32': {self.precision!r}"
            )

    @property
    def itemsize(self) -> int:
        return 4 if self.precision == "fp32" else 8

    @property
    def num_ranks(self) -> int:
        p = self.rank_dims
        return p[0] * p[1] * p[2]

    @property
    def global_cells(self) -> tuple[int, int, int]:
        return tuple(c * p for c, p in zip(self.per_rank_cells, self.rank_dims))

    @property
    def total_finest_points(self) -> int:
        g = self.global_cells
        return g[0] * g[1] * g[2]


@dataclass
class LevelGeometry:
    """Per-level sizes the cost model needs."""

    index: int
    cells: tuple[int, int, int]
    brick_dim: int

    @property
    def points(self) -> int:
        return self.cells[0] * self.cells[1] * self.cells[2]

    @property
    def shape_bricks(self) -> tuple[int, int, int]:
        return tuple(c // self.brick_dim for c in self.cells)

    def message_bytes(
        self, d: tuple[int, int, int], ghost_cells: int, itemsize: int = 8
    ) -> int:
        """Payload for the exchange region along ``d`` (one field).

        ``ghost_cells`` is the halo depth in cells: the brick dimension
        for brick exchanges, 1 for the conventional baseline.
        """
        nbytes = itemsize
        for c, n in zip(d, self.cells):
            nbytes *= n if c == 0 else ghost_cells
        return nbytes


class TimedSolve:
    """Priced GMG solve of one workload on one machine."""

    def __init__(self, machine: MachineSpec, workload: WorkloadConfig) -> None:
        self.machine = machine
        self.workload = workload
        self.brick_dim = workload.brick_dim or machine.brick_dim
        self.gpu_aware = (
            machine.gpu_aware_mpi if workload.gpu_aware is None else workload.gpu_aware
        )
        # The network model reads gpu_aware off the machine spec; apply
        # any override by cloning the spec.
        if self.gpu_aware != machine.gpu_aware_mpi:
            self.machine = replace(machine, gpu_aware_mpi=self.gpu_aware)
        self.topology = CartTopology(workload.rank_dims, workload.ranks_per_node)
        #: the brick solver's levels carry no ghost shell (one periodic
        #: rank): no exchange, no halo bytes, no convergence-check
        #: exchange — the conventional baseline always keeps its ghosts
        self.ghostless = not workload.baseline and ghost_shell_bricks(
            self.topology.size, self.topology.periodic
        ) == 0
        self.levels = [
            self._level_geometry(lev) for lev in range(workload.num_levels)
        ]

    def _level_geometry(self, lev: int) -> LevelGeometry:
        cells = tuple(c >> lev for c in self.workload.per_rank_cells)
        if self.workload.baseline:
            bdim = 1  # conventional layout: ghost width one cell
        else:
            bdim = level_brick_dim(min(cells), self.brick_dim)
        return LevelGeometry(index=lev, cells=cells, brick_dim=bdim)

    # ------------------------------------------------------------------
    # schedule counts (mirrors repro.gmg.vcycle exactly)
    # ------------------------------------------------------------------
    def ghost_depth(self, lev: int) -> int:
        """Halo cells validated per exchange at level ``lev``."""
        if self.workload.baseline or not self.workload.communication_avoiding:
            return 1
        return self.levels[lev].brick_dim

    def exchanges_per_visit(self, lev: int, smooths: int) -> int:
        if self.ghostless:
            return 0
        return math.ceil(smooths / self.ghost_depth(lev))

    @property
    def exchanges_per_check(self) -> int:
        """Exchanges one convergence check performs (of ``x``, level 0)."""
        return 0 if self.ghostless else 1

    def visits_per_vcycle(self, lev: int) -> int:
        """Smoothing visits per V-cycle: 2 for intermediate levels
        (down + up), 1 for the coarsest (bottom solve)."""
        return 1 if lev == self.workload.num_levels - 1 else 2

    # ------------------------------------------------------------------
    # priced pieces
    # ------------------------------------------------------------------
    def kernel_seconds(self, op: str, lev: int, points: int | None = None) -> float:
        """One invocation of ``op`` at level ``lev``."""
        pts = self.levels[lev].points if points is None else points
        t = kernel_time(self.machine, op, pts)
        if self.workload.itemsize != 8:
            # bandwidth-bound kernels scale with bytes moved
            launch = self.machine.gpu.kernel_launch_latency_s
            t = launch + (t - launch) * self.workload.itemsize / 8
        if self.workload.baseline:
            # Conventional layout streams less efficiently (extra
            # address streams, ghost copies) and the HPGMG-FV operator
            # moves more bytes per point (variable coefficients):
            # scale the size-dependent part, keep the launch latency.
            launch = self.machine.gpu.kernel_launch_latency_s
            scale = (
                self.workload.baseline_traffic_factor
                / self.workload.baseline_layout_factor
            )
            t = launch + (t - launch) * scale
        return t

    @cached_property
    def _worst_rank_neighbor_split(self) -> tuple[int, int]:
        """(remote, local) direction counts of the worst-placed rank."""
        worst = (26, 0)
        best_seen = None
        for rank in range(self.topology.size):
            remote = sum(
                0 if self.topology.is_intra_node(rank, nb) else 1
                for nb in self.topology.neighbors(rank).values()
            )
            if best_seen is None or remote > best_seen:
                best_seen = remote
                worst = (remote, 26 - remote)
            if remote == 26:
                break
        return worst

    def exchange_seconds(self, lev: int, nfields: int = 1) -> float:
        """One exchange phase at ``lev`` (worst rank = barrier time)."""
        geo = self.levels[lev]
        ghost = self.ghost_depth(lev) if not self.workload.baseline else 1
        if not self.workload.communication_avoiding and not self.workload.baseline:
            # Brick exchanges always move whole ghost bricks even when
            # only one cell of validity is consumed per iteration.
            ghost = geo.brick_dim
        n_remote, n_local = self._worst_rank_neighbor_split
        sizes = [
            geo.message_bytes(d, ghost, self.workload.itemsize) * nfields
            for d in NEIGHBOR_DIRECTIONS
        ]
        # Distribute direction sizes across remote/local in proportion:
        # faces dominate; the worst rank's remote set contains the
        # largest messages, so sort descending and take the biggest as
        # remote (conservative barrier estimate).
        sizes.sort(reverse=True)
        remote, local = sizes[:n_remote], sizes[n_remote:]
        t = exchange_time(
            self.machine,
            remote,
            local,
            num_nodes=self.topology.num_nodes,
            ranks_per_node=self.workload.ranks_per_node,
        )
        if self._needs_packing():
            total = sum(sizes)
            t += pack_time(self.machine, total) + pack_time(self.machine, total)
        return t

    def _needs_packing(self) -> bool:
        """Pack/unpack kernels required per exchange?

        The surface-major brick ordering sends and receives straight
        from contiguous storage segments (PPoPP'21); the lexicographic
        ordering and the conventional array layout must gather/scatter.
        """
        return self.workload.baseline or self.workload.ordering != "surface-major"

    def exchange_total_bytes(self, lev: int, nfields: int = 1) -> int:
        """Total payload of one exchange at ``lev`` (Fig. 6's x-axis)."""
        geo = self.levels[lev]
        ghost = geo.brick_dim if not self.workload.baseline else 1
        return sum(
            geo.message_bytes(d, ghost, self.workload.itemsize) * nfields
            for d in NEIGHBOR_DIRECTIONS
        )

    # ------------------------------------------------------------------
    # assembled times
    # ------------------------------------------------------------------
    def _visit_time(self, lev: int, smooths: int, with_residual: bool) -> dict:
        """Time of one smoothing visit, split by operation."""
        out: dict[str, float] = {}
        n_ex = self.exchanges_per_visit(lev, smooths)
        # first exchange of the visit aggregates x and b
        t_ex = self.exchange_seconds(lev, nfields=2) if n_ex else 0.0
        if n_ex > 1:
            t_ex += (n_ex - 1) * self.exchange_seconds(lev, nfields=1)
        out["exchange"] = t_ex
        out["applyOp"] = smooths * self.kernel_seconds("applyOp", lev)
        smooth_op = "smooth+residual" if with_residual else "smooth"
        out[smooth_op] = smooths * self.kernel_seconds(smooth_op, lev)
        return out

    def vcycle_level_times(self) -> list[dict[str, float]]:
        """Per-level, per-operation seconds for ONE V-cycle.

        Inter-grid operations are attributed to the finer level, as in
        the paper's Table II (restriction and interpolation+increment
        appear in the finest level's breakdown).
        """
        W = self.workload
        L = W.num_levels
        times: list[dict[str, float]] = [
            {op: 0.0 for op in BREAKDOWN_OPS} | {"initZero": 0.0} for _ in range(L)
        ]

        def add(lev: int, parts: dict[str, float]) -> None:
            for op, t in parts.items():
                times[lev][op] = times[lev].get(op, 0.0) + t

        for lev in range(L - 1):
            # down-sweep visit
            add(lev, self._visit_time(lev, W.max_smooths, with_residual=True))
            coarse_pts = self.levels[lev + 1].points
            add(lev, {"restriction": self.kernel_seconds("restriction", lev, coarse_pts)})
            add(lev + 1, {"initZero": self.kernel_seconds("initZero", lev + 1)})
            # up-sweep visit
            add(lev, {
                "interpolation+increment": self.kernel_seconds(
                    "interpolation+increment", lev, coarse_pts
                )
            })
            add(lev, self._visit_time(lev, W.max_smooths, with_residual=True))
        add(L - 1, self._visit_time(L - 1, W.bottom_smooths, with_residual=False))
        return times

    def convergence_check_time(self) -> float:
        """Exchange + applyOp + residual + allreduce on the finest level."""
        t = self.exchanges_per_check * self.exchange_seconds(0, nfields=1)
        t += self.kernel_seconds("applyOp", 0)
        t += self.kernel_seconds("residual", 0)
        t += allreduce_time(
            self.machine, self.topology.size, self.topology.num_nodes
        )
        return t

    def time_per_vcycle(self) -> float:
        return sum(sum(lv.values()) for lv in self.vcycle_level_times())

    def total_solve_time(self) -> float:
        """``num_vcycles`` V-cycles plus a convergence check per cycle."""
        per_cycle = self.time_per_vcycle() + self.convergence_check_time()
        return self.workload.num_vcycles * per_cycle

    def solve_level_times(self) -> list[dict[str, float]]:
        """Fig. 3's quantity: per-level totals over the full solve."""
        per_cycle = self.vcycle_level_times()
        n = self.workload.num_vcycles
        out = [{op: t * n for op, t in lv.items()} for lv in per_cycle]
        # convergence checks live on the finest level
        out[0]["exchange"] += (
            n * self.exchanges_per_check * self.exchange_seconds(0, nfields=1)
        )
        out[0]["applyOp"] += n * self.kernel_seconds("applyOp", 0)
        return out

    def op_fractions_finest(self) -> dict[str, float]:
        """Table II: share of finest-level time per operation."""
        lv0 = self.vcycle_level_times()[0]
        keep = {
            op: lv0.get(op, 0.0)
            for op in (
                "applyOp",
                "smooth+residual",
                "restriction",
                "interpolation+increment",
                "exchange",
            )
        }
        total = sum(keep.values())
        return {op: t / total for op, t in keep.items()}

    def gstencil_per_second(self) -> float:
        """Scaling throughput: global finest cells / total solve time / 1e9."""
        return self.workload.total_finest_points / self.total_solve_time() / 1e9

    def time_decomposition(self) -> dict[str, float]:
        """Split the per-V-cycle time into latency and streaming parts.

        Returns seconds per V-cycle in five buckets: kernel launch
        latency, kernel streaming (bytes/bandwidth), network per-message
        overhead (incl. host staging), network streaming, and the
        convergence check's allreduce.  The latency buckets are what
        strong scaling runs into (Section IX: "computation and
        communication timings plateau at latency/overhead limits").
        """
        W = self.workload
        launch = self.machine.gpu.kernel_launch_latency_s
        kernel_launch = 0.0
        kernel_stream = 0.0
        counts = self.schedule_kernel_counts(1, 1)
        R = self.topology.size
        for (lev, op), n in counts.items():
            per_rank = n // R
            t = self.kernel_seconds(op, lev, self._op_points(lev, op))
            kernel_launch += per_rank * launch
            kernel_stream += per_rank * (t - launch)

        net_overhead = 0.0
        net_stream = 0.0
        n_remote, n_local = self._worst_rank_neighbor_split
        for lev, n_ex in self.schedule_exchange_counts(1, 1).items():
            alpha_only = exchange_time(
                self.machine,
                [0] * n_remote,
                [0] * n_local,
                num_nodes=self.topology.num_nodes,
                ranks_per_node=W.ranks_per_node,
            )
            full = self.exchange_seconds(lev, nfields=1)
            net_overhead += n_ex * alpha_only
            net_stream += n_ex * max(full - alpha_only, 0.0)

        reduce_t = allreduce_time(
            self.machine, self.topology.size, self.topology.num_nodes
        )
        return {
            "kernel_launch": kernel_launch,
            "kernel_stream": kernel_stream,
            "net_overhead": net_overhead,
            "net_stream": net_stream,
            "allreduce": reduce_t,
        }

    def latency_fraction(self) -> float:
        """Share of a V-cycle spent on latency/overhead terms."""
        d = self.time_decomposition()
        latency = d["kernel_launch"] + d["net_overhead"] + d["allreduce"]
        return latency / sum(d.values())

    # ------------------------------------------------------------------
    # schedule counts for cross-validation against the functional solver
    # ------------------------------------------------------------------
    def _op_points(self, lev: int, op: str) -> int:
        """Points one rank's application of ``op`` at ``lev`` processes
        (the inter-grid operators are sized by their coarse side)."""
        if op in ("restriction", "interpolation+increment"):
            lev = min(lev + 1, self.workload.num_levels - 1)
        return self.levels[lev].points

    def schedule_kernel_counts(self, num_vcycles: int, num_checks: int) -> dict:
        """Kernel applications of a functional solve, by the paper's
        operation names, summed over ranks.

        ``num_vcycles`` V-cycles plus ``num_checks`` convergence checks
        (Algorithm 1 evaluates the residual once before the first cycle
        and once after each).
        """
        W = self.workload
        R = self.topology.size
        counts: dict[tuple[int, str], int] = {}

        def add(lev: int, op: str, n: int) -> None:
            counts[(lev, op)] = counts.get((lev, op), 0) + n

        L = W.num_levels
        for _ in range(num_vcycles):
            for lev in range(L - 1):
                add(lev, "applyOp", 2 * W.max_smooths * R)
                add(lev, "smooth+residual", 2 * W.max_smooths * R)
                add(lev, "restriction", R)
                add(lev + 1, "initZero", R)
                add(lev, "interpolation+increment", R)
            add(L - 1, "applyOp", W.bottom_smooths * R)
            add(L - 1, "smooth", W.bottom_smooths * R)
        add(0, "applyOp", num_checks * R)
        add(0, "residual", num_checks * R)
        return counts

    def schedule_kernel_points(self, num_vcycles: int, num_checks: int) -> dict:
        """Expected ``Recorder.kernel_points()`` of a functional solve,
        re-keyed by :func:`repro.obs.aggregate.by_paper_op`.

        Points, not calls: the solver runs one kernel call over all
        rank blocks and a fused stencil for a staged pair, so its call
        counts depend on how it executes; the points each paper
        operation processes do not.
        """
        return {
            (lev, op): n * self._op_points(lev, op)
            for (lev, op), n in self.schedule_kernel_counts(
                num_vcycles, num_checks
            ).items()
        }

    def schedule_exchange_counts(self, num_vcycles: int, num_checks: int) -> dict:
        """Expected ``Recorder.exchange_counts()`` (phases per level;
        a level that exchanges nothing has no entry)."""
        W = self.workload
        L = W.num_levels
        out: dict[int, int] = {}
        for lev in range(L - 1):
            out[lev] = num_vcycles * 2 * self.exchanges_per_visit(lev, W.max_smooths)
        out[L - 1] = num_vcycles * self.exchanges_per_visit(
            L - 1, W.bottom_smooths
        )
        out[0] += num_checks * self.exchanges_per_check
        return {lev: n for lev, n in out.items() if n}

    def schedule_message_bytes(self, num_vcycles: int, num_checks: int) -> dict:
        """Expected ``Recorder.message_bytes_by_level()`` totals (a level
        that exchanges nothing has no entry)."""
        W = self.workload
        R = self.topology.size
        L = W.num_levels
        out: dict[int, int] = {}
        for lev in range(L):
            visits = self.visits_per_vcycle(lev)
            smooths = W.bottom_smooths if lev == L - 1 else W.max_smooths
            n_ex = self.exchanges_per_visit(lev, smooths)
            one_field = self.exchange_total_bytes(lev, nfields=1)
            # the first exchange of a visit carries x and b
            per_visit = (n_ex + 1) * one_field if n_ex else 0
            out[lev] = num_vcycles * visits * per_visit * R
        out[0] += (
            num_checks * self.exchanges_per_check
            * self.exchange_total_bytes(0, nfields=1) * R
        )
        return {lev: n for lev, n in out.items() if n}
