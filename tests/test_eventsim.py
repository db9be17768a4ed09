"""Discrete-event exchange simulation vs the closed-form model."""

import pytest

from repro.machines import FRONTIER, PERLMUTTER, SUNSPOT
from repro.machines.eventsim import ExchangeEventSim, SimMessage
from repro.machines.network import exchange_time

MB = 1 << 20
EXCHANGE_SIZES = [16 * MB] * 6 + [256 * 1024] * 12 + [4096] * 8


class TestAgreementWithClosedForm:
    @pytest.mark.parametrize("machine", [PERLMUTTER, FRONTIER, SUNSPOT])
    def test_one_rank_per_nic_matches(self, machine):
        """With a dedicated NIC the FIFO degenerates to serialization —
        exactly the closed form's assumption."""
        sim = ExchangeEventSim(machine, ranks_per_node=1)
        t_event = sim.exchange_barrier_time(EXCHANGE_SIZES)
        t_closed = exchange_time(machine, EXCHANGE_SIZES, ranks_per_node=1)
        assert t_event == pytest.approx(t_closed, rel=0.01)

    def test_local_messages_overlap(self):
        sim = ExchangeEventSim(PERLMUTTER, ranks_per_node=1)
        remote_only = sim.exchange_barrier_time([8 * MB])
        with_local = sim.exchange_barrier_time([8 * MB], [MB])
        # the on-node fabric runs concurrently with the NIC
        assert with_local == pytest.approx(remote_only, rel=0.05)


class TestNicSharing:
    def test_shared_nic_serialises(self):
        """Frontier full node: 8 GCD ranks over 4 NICs — the second
        rank on each NIC waits for the first."""
        sim = ExchangeEventSim(FRONTIER, ranks_per_node=8)
        msgs = [SimMessage(src=r, dst=8, nbytes=16 * MB) for r in range(8)]
        out = sim.run(msgs)
        first_wave = [out.send_complete[r] for r in range(4)]
        second_wave = [out.send_complete[r] for r in range(4, 8)]
        assert max(first_wave) < min(second_wave)
        assert min(second_wave) == pytest.approx(2 * max(first_wave), rel=0.01)

    def test_dedicated_nics_do_not_serialise(self):
        """Perlmutter full node: 4 ranks, 4 NICs — no queueing."""
        sim = ExchangeEventSim(PERLMUTTER, ranks_per_node=4)
        msgs = [SimMessage(src=r, dst=4, nbytes=16 * MB) for r in range(4)]
        out = sim.run(msgs)
        times = [out.send_complete[r] for r in range(4)]
        assert max(times) == pytest.approx(min(times), rel=1e-6)

    def test_nic_assignment_round_robin(self):
        sim = ExchangeEventSim(FRONTIER, ranks_per_node=8)
        assert sim.nic_of(0) == (0, 0)
        assert sim.nic_of(4) == (0, 0)  # shares with rank 0
        assert sim.nic_of(3) == (0, 3)
        assert sim.nic_of(8) == (1, 0)  # next node


class TestOutcome:
    def test_recv_completion_tracks_arrivals(self):
        sim = ExchangeEventSim(PERLMUTTER, ranks_per_node=1)
        msgs = [
            SimMessage(src=0, dst=2, nbytes=MB),
            SimMessage(src=1, dst=2, nbytes=16 * MB),
        ]
        out = sim.run(msgs)
        assert out.recv_complete[2] == pytest.approx(
            out.send_complete[1], rel=1e-9
        )
        assert out.rank_time(2) > out.rank_time(0)

    def test_barrier_time_is_max(self):
        sim = ExchangeEventSim(PERLMUTTER, ranks_per_node=1)
        msgs = [SimMessage(src=0, dst=1, nbytes=MB)]
        out = sim.run(msgs)
        assert out.barrier_time == max(out.rank_time(0), out.rank_time(1))

    def test_empty_exchange(self):
        sim = ExchangeEventSim(PERLMUTTER)
        assert sim.run([]).barrier_time == 0.0

    def test_host_staging_adds_to_both_sides(self):
        aware = ExchangeEventSim(PERLMUTTER, ranks_per_node=1)
        msgs = [SimMessage(src=0, dst=1, nbytes=MB)]
        t_aware = aware.run(msgs).barrier_time
        staged = ExchangeEventSim(SUNSPOT, ranks_per_node=1)
        t_staged = staged.run(msgs).barrier_time
        assert t_staged > t_aware

