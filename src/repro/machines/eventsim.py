"""Discrete-event simulation of one exchange phase.

The closed-form :func:`repro.machines.network.exchange_time` prices a
rank's exchange as overheads plus serialized bytes.  This module checks
and refines that picture with an event-driven model of the node:

* every rank posts its messages at a configurable post time (the
  ``MPI_Isend`` loop; default zero) and then waits (``MPI_Waitall``) —
  either immediately, the synchronous schedule, or after an interior
  compute pass, the overlap schedule (:meth:`ExchangeEventSim.overlap`
  prices both through the same event machinery: the exposed cost is
  whatever communication outlasts the compute);
* each *NIC* is a FIFO server: a message occupies its source NIC for
  ``overhead + bytes/rate`` and arrives at the destination after the
  wire latency;
* ranks sharing a NIC (Frontier's 2 GCDs per NIC at full node, Sunspot's
  12 tiles over 8 NICs) contend for it in post order;
* intra-node messages ride the on-node fabric, one FIFO per node,
  concurrently with NIC traffic;
* a rank's exchange completes when all of its sends have left its NIC
  and all expected messages have arrived.

For one rank per NIC the event simulation reproduces the closed form
(tests assert agreement to a few percent); with NIC sharing it exposes
the serialisation the closed form approximates with a bandwidth share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machines.network import (
    message_overhead,
    scale_bandwidth_factor,
    staging_overhead,
)
from repro.machines.specs import MachineSpec


@dataclass(frozen=True)
class SimMessage:
    """One point-to-point message of an exchange phase."""

    src: int
    dst: int
    nbytes: int


@dataclass
class ExchangeOutcome:
    """Per-rank completion times of one simulated exchange."""

    send_complete: dict[int, float] = field(default_factory=dict)
    recv_complete: dict[int, float] = field(default_factory=dict)

    def rank_time(self, rank: int) -> float:
        return max(
            self.send_complete.get(rank, 0.0), self.recv_complete.get(rank, 0.0)
        )

    @property
    def barrier_time(self) -> float:
        """When the slowest rank finishes (the exchange's cost)."""
        ranks = set(self.send_complete) | set(self.recv_complete)
        return max((self.rank_time(r) for r in ranks), default=0.0)


@dataclass(frozen=True)
class OverlapOutcome:
    """Cost split of one exchange overlapped with an interior compute.

    ``comm_s`` is the full wire cost (barrier minus post), ``hidden_s``
    the part absorbed by the concurrent compute, ``exposed_s`` the
    remainder the shell pass still waits for.  ``compute_s = 0``
    degenerates to the synchronous schedule (everything exposed), so
    both schedules are priced by one model.
    """

    barrier_time: float
    post_time: float
    compute_s: float

    @property
    def comm_s(self) -> float:
        return max(0.0, self.barrier_time - self.post_time)

    @property
    def exposed_s(self) -> float:
        return max(0.0, self.comm_s - self.compute_s)

    @property
    def hidden_s(self) -> float:
        return self.comm_s - self.exposed_s

    @property
    def efficiency(self) -> float:
        """Fraction of the wire cost hidden behind compute (1.0 when
        there was nothing to hide)."""
        return self.hidden_s / self.comm_s if self.comm_s > 0.0 else 1.0


class ExchangeEventSim:
    """Event-driven exchange on one machine's node organisation.

    Parameters
    ----------
    machine:
        Supplies NIC rates, overheads and node geometry.
    ranks_per_node:
        Ranks sharing one node (and its NICs).  ``nic_of`` maps a rank
        to its NIC index: ranks are dealt round-robin across the node's
        NICs, so with 8 ranks over 4 NICs each NIC serves two.
    num_nodes:
        For the latency contention factor.
    """

    def __init__(
        self,
        machine: MachineSpec,
        ranks_per_node: int | None = None,
        num_nodes: int = 1,
    ) -> None:
        self.machine = machine
        self.ranks_per_node = ranks_per_node or machine.node.ranks_per_node
        self.num_nodes = num_nodes
        # each rank pushes through a full NIC; sharing emerges from the
        # FIFO rather than from a bandwidth share
        self._nic_rate = (
            machine.network.fabric_sustained_gbs
            * 1e9
            * scale_bandwidth_factor(machine, num_nodes)
        )
        if not machine.gpu_aware_mpi:
            link = machine.node.cpu_gpu_link_gbs
            self._nic_rate = 1.0 / (1.0 / self._nic_rate + 2.0 / (link * 1e9))
        self._fabric_rate = machine.node.intra_node_link_gbs * 1e9

    def node_of(self, rank: int) -> int:
        return rank // self.ranks_per_node

    def nic_of(self, rank: int) -> tuple[int, int]:
        """(node, NIC index) serving ``rank``."""
        node = self.node_of(rank)
        local = rank % self.ranks_per_node
        return node, local % self.machine.node.nics_per_node

    def run(
        self, messages: list[SimMessage], post_time: float = 0.0
    ) -> ExchangeOutcome:
        """Simulate one exchange phase; all sends post at ``post_time``.

        The synchronous and overlap schedules share this one code path:
        the default ``post_time=0.0`` is the classic post-then-wait
        model, while a modelled split-phase schedule shifts the whole
        phase to the instant its sends post and prices the interior
        compute separately (see :meth:`overlap` — a model only: the
        solver itself always exchanges synchronously).
        """
        outcome = ExchangeOutcome()
        nic_free: dict[tuple[int, int], float] = {}
        fabric_free: dict[int, float] = {}
        arrivals: dict[int, list[float]] = {}
        staging = staging_overhead(self.machine)

        # process in post order per source rank (stable by list order)
        for msg in messages:
            intra = self.node_of(msg.src) == self.node_of(msg.dst)
            if intra:
                server = self.node_of(msg.src)
                start = fabric_free.get(server, post_time)
                occupy = (
                    self.machine.node.intra_node_latency_s
                    + msg.nbytes / self._fabric_rate
                )
                done = start + occupy
                fabric_free[server] = done
                arrive = done
            else:
                server = self.nic_of(msg.src)
                start = nic_free.get(server, post_time)
                occupy = (
                    message_overhead(self.machine, msg.nbytes, self.num_nodes)
                    + msg.nbytes / self._nic_rate
                )
                done = start + occupy
                nic_free[server] = done
                arrive = done  # wire latency folded into the overhead
            outcome.send_complete[msg.src] = max(
                outcome.send_complete.get(msg.src, 0.0), done
            )
            arrivals.setdefault(msg.dst, []).append(arrive)

        for rank, times in arrivals.items():
            outcome.recv_complete[rank] = max(times) + staging
        for rank in outcome.send_complete:
            outcome.send_complete[rank] += staging
        return outcome

    # ------------------------------------------------------------------
    def overlap(
        self,
        messages: list[SimMessage],
        compute_s: float = 0.0,
        post_time: float = 0.0,
    ) -> OverlapOutcome:
        """Price one exchange overlapped with ``compute_s`` of interior
        work posted at ``post_time``.

        Runs the same event simulation as :meth:`run` and splits the
        barrier cost into hidden and exposed components; the
        synchronous schedule is the ``compute_s = 0`` special case.
        """
        outcome = self.run(messages, post_time=post_time)
        return OverlapOutcome(
            barrier_time=outcome.barrier_time,
            post_time=post_time,
            compute_s=compute_s,
        )

    def exchange_barrier_time(
        self, message_sizes_remote: list[int], message_sizes_local: list[int] = ()
    ) -> float:
        """Single-rank view matching the closed-form helper's inputs."""
        msgs = [SimMessage(0, 1, n) for n in message_sizes_remote]
        msgs += [
            SimMessage(0, 0, n) for n in message_sizes_local
        ]  # same-node destination
        # place ranks 0 and 1 on different nodes
        sim_rpn = 1
        sim = ExchangeEventSim(self.machine, sim_rpn, self.num_nodes)
        outcome = sim.run(msgs)
        return outcome.send_complete.get(0, 0.0)
