"""Simulated MPI semantics: headers, matching, ordering, faults on the
wire, the ledger, dead ranks and collectives.

``SimComm`` carries message headers — sequence number, size, checksum
and the ``(byte, bit)`` a corruption flipped — never bytes: the
consumers copy their data themselves.
"""

import numpy as np
import pytest

from repro.comm import SimComm, UnmatchedReceiveError
from repro.faults.injector import FaultAction


class TestPointToPoint:
    def test_send_recv_roundtrip(self):
        comm = SimComm(2)
        comm.isend(0, 1, tag=7, nbytes=80, checksum=0xBEEF)
        msg = comm.try_match(1, 0, tag=7)
        assert (msg.seq, msg.nbytes, msg.checksum, msg.flip) == (0, 80, 0xBEEF, None)
        assert comm.pending == 0

    def test_header_carries_no_payload(self):
        comm = SimComm(2)
        comm.isend(0, 1, tag=0, nbytes=8)
        msg = comm.try_match(1, 0, tag=0)
        assert not any(
            isinstance(getattr(msg, name), np.ndarray)
            for name in msg.__dataclass_fields__
        )
        assert not hasattr(SimComm, "irecv") and not hasattr(SimComm, "waitall")

    def test_tag_matching(self):
        comm = SimComm(2)
        comm.isend(0, 1, tag=1, nbytes=8)
        comm.isend(0, 1, tag=2, nbytes=16)
        assert comm.try_match(1, 0, tag=2).nbytes == 16
        assert comm.try_match(1, 0, tag=1).nbytes == 8

    def test_fifo_for_identical_envelopes(self):
        """Non-overtaking: same (src, dst, tag) arrives in post order."""
        comm = SimComm(2)
        for n in (8, 16, 24):
            comm.isend(0, 1, tag=5, nbytes=n)
        got = [comm.try_match(1, 0, tag=5).nbytes for _ in range(3)]
        assert got == [8, 16, 24]

    def test_self_send(self):
        comm = SimComm(1)
        comm.isend(0, 0, tag=0, nbytes=8)
        assert comm.try_match(0, 0, tag=0).nbytes == 8

    def test_unmatched_wait_raises(self):
        """An empty mailbox matches nothing; a receive without an
        injector judges that a deadlock (a protocol bug) and raises."""
        from repro.comm import ResilientChannel

        comm = SimComm(2)
        assert comm.try_match(1, 0, tag=9) is None
        with pytest.raises(UnmatchedReceiveError, match="deadlock"):
            ResilientChannel(comm)._receive(0, 1, 0, 9, 8, lambda: None)
        comm.assert_drained()

    def test_rank_range_checked(self):
        comm = SimComm(2)
        with pytest.raises(ValueError):
            comm.isend(0, 2, tag=0, nbytes=8)
        with pytest.raises(ValueError):
            comm.isend(-1, 0, tag=0, nbytes=8)


class TestStats:
    def test_counters(self):
        comm = SimComm(2)
        comm.isend(0, 1, tag=0, nbytes=80)
        comm.isend(1, 0, tag=0, nbytes=40)
        assert comm.sent_messages == 2
        assert comm.sent_bytes == 120
        assert comm.bytes_by_pair[(0, 1)] == 80

    def test_ledger_rows_per_level_and_pair(self):
        comm = SimComm(3)
        comm.isend(0, 1, tag=0, nbytes=8, level=0)
        comm.isend(0, 1, tag=1, nbytes=16, level=0)
        comm.isend(2, 1, tag=0, nbytes=4, level=1)
        comm.isend(0, 1, tag=0, nbytes=8, fault=FaultAction("drop"), level=0)
        comm.retransmit(1, 0, tag=0, level=0)
        comm.account_sends([((2, 1, 0), 3, 96)])
        assert comm.ledger == {
            (0, 0, 1): [4, 40, 1], (1, 2, 1): [1, 4, 0], (2, 1, 0): [3, 96, 0],
        }
        assert comm.retransmissions == 1

    def test_assert_drained_clean(self):
        comm = SimComm(2)
        comm.isend(0, 1, tag=0, nbytes=8)
        comm.try_match(1, 0, tag=0)
        comm.assert_drained()

    def test_assert_drained_detects_leftovers(self):
        comm = SimComm(2)
        comm.isend(0, 1, tag=0, nbytes=8)
        with pytest.raises(RuntimeError, match="undelivered"):
            comm.assert_drained()

    def test_assert_drained_names_each_leaking_mailbox(self):
        comm = SimComm(3)
        comm.isend(0, 1, tag=3, nbytes=8)
        comm.isend(0, 1, tag=3, nbytes=8)
        comm.isend(2, 0, tag=7, nbytes=8)
        with pytest.raises(RuntimeError) as exc:
            comm.assert_drained()
        assert "2 mailbox(es)" in str(exc.value)
        assert "dst=1 src=0 tag=3: 2 pending" in str(exc.value)
        assert "dst=0 src=2 tag=7: 1 pending" in str(exc.value)


class TestFaultTransport:
    """Resilience primitives: headers, delay queue, retransmission."""

    def test_try_match_returns_none_instead_of_raising(self):
        comm = SimComm(2)
        assert comm.try_match(1, 0, tag=0) is None
        comm.isend(0, 1, tag=0, nbytes=24)
        msg = comm.try_match(1, 0, tag=0)
        assert (msg.nbytes, msg.seq) == (24, 0)

    def test_sequence_numbers_are_per_envelope(self):
        comm = SimComm(2)
        for _ in range(2):
            comm.isend(0, 1, tag=0, nbytes=8)
        comm.isend(0, 1, tag=1, nbytes=8)
        assert comm.try_match(1, 0, tag=0).seq == 0
        assert comm.try_match(1, 0, tag=0).seq == 1
        assert comm.try_match(1, 0, tag=1).seq == 0

    def test_drop_posts_nothing_but_is_accounted(self):
        comm = SimComm(2)
        comm.isend(0, 1, tag=0, nbytes=8, fault=FaultAction("drop"))
        assert comm.try_match(1, 0, tag=0) is None
        assert comm.pending == 0 and comm.sent_messages == 1

    def test_duplicate_delivers_the_same_header_twice(self):
        comm = SimComm(2)
        comm.isend(0, 1, tag=0, nbytes=8, checksum=7,
                   fault=FaultAction("duplicate"))
        assert comm.pending == 2
        first, second = comm.try_match(1, 0, tag=0), comm.try_match(1, 0, tag=0)
        assert first == second and first.seq == 0

    def test_corrupt_records_the_flip_in_the_header(self):
        comm = SimComm(2)
        comm.isend(0, 1, tag=0, nbytes=32, checksum=123,
                   fault=FaultAction("corrupt", corrupt_byte=35, corrupt_bit=13))
        msg = comm.try_match(1, 0, tag=0)
        assert msg.flip == (35 % 32, 13 % 8)
        assert (msg.checksum, msg.nbytes) == (123, 32)

    def test_delay_parks_until_released(self):
        comm = SimComm(2)
        comm.isend(0, 1, tag=0, nbytes=8, fault=FaultAction("delay"))
        assert comm.pending == 1
        assert comm.try_match(1, 0, tag=0) is None
        assert comm.release_delayed(1, 0, tag=0) == 1
        assert comm.try_match(1, 0, tag=0).nbytes == 8
        assert comm.release_delayed(1, 0, tag=0) == 0

    def test_retransmit_resends_pristine_payload(self):
        """The logged header goes out again without the original flip."""
        comm = SimComm(2)
        comm.isend(0, 1, tag=0, nbytes=32, checksum=123,
                   fault=FaultAction("corrupt", corrupt_byte=2, corrupt_bit=5))
        corrupted = comm.try_match(1, 0, tag=0)
        assert corrupted.flip == (2, 5)
        assert comm.retransmit(1, 0, tag=0) == 32 == comm.logged_nbytes(1, 0, 0)
        assert comm.retransmissions == 1
        fresh = comm.try_match(1, 0, tag=0)
        # same envelope identity (seq, checksum), nothing flipped
        assert (fresh.seq, fresh.checksum, fresh.flip) == (corrupted.seq, 123, None)

    def test_retransmit_without_prior_send_is_protocol_bug(self):
        comm = SimComm(2)
        with pytest.raises(UnmatchedReceiveError, match="nothing was ever sent"):
            comm.retransmit(1, 0, tag=4)
        assert comm.logged_nbytes(1, 0, 4) == 0

    def test_discard_stale_drops_old_sequence_numbers(self):
        comm = SimComm(2)
        for _ in range(3):
            comm.isend(0, 1, tag=0, nbytes=8)
        assert comm.discard_stale(1, 0, tag=0, below_seq=2) == 2
        assert comm.try_match(1, 0, tag=0).seq == 2

    def test_reset_in_flight_purges_everything(self):
        comm = SimComm(2)
        comm.isend(0, 1, tag=0, nbytes=8)
        comm.isend(0, 1, tag=1, nbytes=8, fault=FaultAction("delay"))
        assert comm.in_flight() == {(1, 0, 0): 1, (1, 0, 1): 1}
        assert comm.reset_in_flight() == 2
        comm.assert_drained()


class TestDeadRanks:
    def test_every_touch_of_a_dead_endpoint_raises(self):
        from repro.comm.simmpi import RankDeadError

        comm = SimComm(3)
        comm.isend(1, 0, tag=0, nbytes=8)
        comm.kill(1)
        with pytest.raises(RankDeadError, match="rank 1"):
            comm.isend(0, 1, tag=0, nbytes=8)
        with pytest.raises(RankDeadError):
            comm.try_match(0, 1, tag=0)
        with pytest.raises(RankDeadError):
            comm.retransmit(0, 1, tag=0)
        with pytest.raises(RankDeadError):
            comm.allreduce_max([0.0, 0.0, 0.0])
        comm.isend(0, 2, tag=0, nbytes=8)  # survivors still talk

    def test_repair_purges_forgets_sequences_and_revives(self):
        comm = SimComm(2)
        comm.isend(0, 1, tag=0, nbytes=8)
        comm.kill(1)
        assert comm.repair(revive=[1]) == 1
        assert comm.dead_ranks() == () and comm.repairs == 1
        assert comm.logged_nbytes(1, 0, 0) == 0
        comm.isend(0, 1, tag=0, nbytes=8)
        assert comm.try_match(1, 0, tag=0).seq == 0


class TestCollectives:
    def test_allreduce_max(self):
        comm = SimComm(3)
        assert comm.allreduce_max([1.0, 5.0, 3.0]) == 5.0

    def test_allreduce_max_propagates_nan(self):
        """A poisoned local residual must surface globally (MPI_MAX)."""
        comm = SimComm(3)
        assert np.isnan(comm.allreduce_max([1.0, float("nan"), 3.0]))

    def test_allreduce_sum(self):
        comm = SimComm(3)
        assert comm.allreduce_sum([1.0, 2.0, 3.0]) == 6.0

    def test_allreduce_requires_all_ranks(self):
        comm = SimComm(3)
        with pytest.raises(ValueError):
            comm.allreduce_max([1.0, 2.0])

    @pytest.mark.parametrize("n", [8, 27])
    def test_subcomm_sum_associates_like_the_parent(self, n):
        """A reduction over the active ranks must round exactly as the
        full communicator's: ``np.sum`` adds pairwise from 8 values up
        and differs from the left-to-right sum in the last bit."""
        from repro.comm import SubComm

        rng = np.random.default_rng(n)
        full, active = SimComm(n), SubComm(SimComm(n + 1), range(n), 100)
        differs_from_pairwise = 0
        for _ in range(200):
            values = list(rng.random(n))
            assert active.allreduce_sum(values) == full.allreduce_sum(values)
            differs_from_pairwise += (
                full.allreduce_sum(values) != float(np.sum(values))
            )
        assert differs_from_pairwise  # the test can tell the two apart

    def test_bad_size(self):
        with pytest.raises(ValueError):
            SimComm(0)


class TestCommSpans:
    """Per-rank span attribution of sends, receives, retransmissions."""

    def test_isend_lands_on_sender_timeline(self):
        from repro.obs import Tracer

        tracer = Tracer()
        comm = SimComm(2, tracer=tracer)
        comm.isend(0, 1, tag=7, nbytes=32, level=2)
        (span,) = tracer.children[0].spans
        assert span.name == "isend"
        assert span.attrs == {
            "l": 2, "src": 0, "dst": 1, "tag": 7, "bytes": 32, "seq": 0,
        }

    def test_matched_receive_lands_on_receiver_timeline(self):
        from repro.obs import Tracer

        tracer = Tracer()
        comm = SimComm(2, tracer=tracer)
        comm.isend(0, 1, tag=7, nbytes=32, level=1)
        comm.try_match(1, 0, tag=7, level=1)
        (span,) = tracer.children[1].spans
        assert span.name == "irecv"
        assert span.attrs["src"] == 0 and span.attrs["dst"] == 1
        assert span.attrs["l"] == 1 and span.attrs["bytes"] == 32

    def test_send_span_precedes_matching_recv_span(self):
        """Lockstep ordering: the property the critical-path DP's
        sort-by-start topological order rests on."""
        from repro.obs import Tracer

        tracer = Tracer()
        comm = SimComm(2, tracer=tracer)
        comm.isend(0, 1, tag=0, nbytes=64)
        comm.try_match(1, 0, tag=0)
        send = tracer.children[0].spans[0]
        recv = tracer.children[1].spans[0]
        assert send.end <= recv.start

    def test_retransmit_traced_with_original_seq(self):
        from repro.obs import Tracer

        tracer = Tracer()
        comm = SimComm(2, tracer=tracer)
        comm.isend(0, 1, tag=3, nbytes=16, fault=FaultAction("drop"))
        comm.retransmit(1, 0, tag=3, level=0)
        names = [s.name for s in tracer.children[0].spans]
        assert names == ["isend", "retransmit"]
        assert tracer.children[0].spans[1].attrs["seq"] == 0
        assert tracer.children[0].spans[1].attrs["bytes"] == 16

    def test_untraced_comm_records_nothing(self):
        comm = SimComm(2)
        comm.isend(0, 1, tag=0, nbytes=8)
        comm.try_match(1, 0, tag=0)
        assert not comm.tracer.enabled
