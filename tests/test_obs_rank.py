"""Rank-resolved communication: the ledger-sourced traffic matrix and
the pid-per-rank Chrome export."""

import dataclasses

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.gmg import GMGSolver, SolverConfig
from repro.obs import Tracer, to_chrome_trace
from repro.obs.chrome_trace import rank_pid
from repro.obs.rank import traffic_matrix

from tests.conftest import QUIET_INJECTOR, all_envelopes


@pytest.fixture(scope="module")
def traced_solve():
    """One traced 2-rank tier-1-shaped solve shared across the module,
    every exchange forced to post headers (a fault-free traced solve
    posts none)."""
    config = SolverConfig(
        global_cells=16, num_levels=2, brick_dim=4, max_smooths=6,
        bottom_smooths=20, max_vcycles=2, rank_dims=(2, 1, 1),
    )
    tracer = Tracer()
    with all_envelopes():
        solver = GMGSolver(config, tracer=tracer, **QUIET_INJECTOR)
        result = solver.solve()
    return config, solver, tracer, result


class TestTrafficMatrix:
    def test_matches_simulator_ledger(self, traced_solve):
        """The matrix agrees byte for byte with the simulator's
        ``bytes_by_pair`` and totals, the solve having posted every
        header."""
        config, solver, tracer, _ = traced_solve
        traffic = traffic_matrix(solver.comm)
        assert traffic.size == config.num_ranks
        for (src, dst), nbytes in solver.comm.bytes_by_pair.items():
            assert traffic.nbytes[src, dst] == nbytes
        assert traffic.total_bytes == solver.comm.sent_bytes
        assert traffic.total_messages == solver.comm.sent_messages

    def test_untraced_planned_solve_has_the_same_matrix(self, traced_solve):
        config, solver, _, _ = traced_solve
        plain = GMGSolver(config)
        plain.solve()
        want, got = traffic_matrix(solver.comm), traffic_matrix(plain.comm)
        np.testing.assert_array_equal(got.messages, want.messages)
        np.testing.assert_array_equal(got.nbytes, want.nbytes)
        assert got.levels() == want.levels()
        for lev in got.levels():
            np.testing.assert_array_equal(
                got.level_messages[lev], want.level_messages[lev]
            )

    def test_per_level_split_sums_to_total(self, traced_solve):
        _, solver, _, _ = traced_solve
        traffic = traffic_matrix(solver.comm)
        assert traffic.levels() == [0, 1]
        stacked = sum(traffic.level_nbytes[lev] for lev in traffic.levels())
        np.testing.assert_array_equal(stacked, traffic.nbytes)

    def test_clean_solve_has_no_retransmissions(self, traced_solve):
        _, solver, _, _ = traced_solve
        assert traffic_matrix(solver.comm).total_retransmissions == 0

    def test_retransmit_spans_counted(self):
        """A dropped header and its resend: two messages on the pair,
        one in the resend column, at the exchange's level."""
        from repro.comm import ResilientChannel, SimComm
        from repro.faults.injector import FaultAction

        class DropFirst:
            vcycle = 0
            actions = [FaultAction(kind="drop")]

            def message_action(self, *args):
                return self.actions.pop() if self.actions else None

        comm = SimComm(2)
        ch = ResilientChannel(comm, injector=DropFirst())
        ch._send(1, 0, 1, 3, None, 8 * 8, None)
        ch._receive(1, 1, 0, 3, 8 * 8, lambda: None)
        traffic = traffic_matrix(comm)
        assert traffic.messages[0, 1] == 2
        assert traffic.retransmissions[0, 1] == 1
        assert traffic.nbytes[0, 1] == 2 * 8 * 8
        assert traffic.levels() == [1] and traffic.total_messages == 2


class TestRankChromeExport:
    def test_one_pid_per_rank(self, traced_solve):
        """A rank's timeline holds what it does on its own: here each
        rank unpacks agglomeration blocks."""
        config = dataclasses.replace(
            traced_solve[0], agglomerate_threshold=10**6
        )
        tracer = Tracer()
        GMGSolver(config, tracer=tracer).solve()
        obj = to_chrome_trace(tracer)
        pids = {e["pid"] for e in obj["traceEvents"]}
        assert pids == {1} | {rank_pid(r) for r in range(config.num_ranks)}
        names = {
            e["pid"]: e["args"]["name"]
            for e in obj["traceEvents"]
            if e["ph"] == "M"
        }
        assert names[1] == "solve (global timeline)"
        for r in range(config.num_ranks):
            assert names[rank_pid(r)] == f"rank {r}"

    def test_comm_spans_land_on_owner_pid(self, traced_solve):
        """Per-rank spans export under their rank's pid; posted headers
        leave none of their own, and the halo writes by copy.  Every
        level-0 header of the only exchange is duplicated, so each rank
        discards stale copies at the end-of-solve drain, on its own
        timeline."""
        config = dataclasses.replace(traced_solve[0], max_vcycles=0)
        plan = FaultPlan(specs=(
            FaultSpec("duplicate", vcycle=0, level=0, max_hits=None),
        ))
        tracer = Tracer()
        GMGSolver(config, fault_plan=plan, tracer=tracer).solve()
        obj = to_chrome_trace(tracer)
        assert set(tracer.children) == set(range(config.num_ranks))
        for rank, child in tracer.children.items():
            names = {s.name for s in child.spans}
            assert names and not names & {"isend", "irecv", "retransmit"}
            assert {
                e["name"] for e in obj["traceEvents"]
                if e["pid"] == rank_pid(rank) and e["ph"] == "X"
            } == names
        assert not {"unpack", "waitall"} & {e["name"] for e in obj["traceEvents"]}
