"""Simulated MPI semantics: matching, ordering, collectives."""

import numpy as np
import pytest

from repro.comm import SimComm


class TestPointToPoint:
    def test_send_recv_roundtrip(self):
        comm = SimComm(2)
        payload = np.arange(10.0)
        comm.isend(0, 1, tag=7, payload=payload)
        out = comm.irecv(1, 0, tag=7).wait()
        assert np.array_equal(out, payload)

    def test_payload_snapshotted_at_post(self):
        """MPI buffered-send semantics: mutating after isend is safe."""
        comm = SimComm(2)
        payload = np.arange(4.0)
        comm.isend(0, 1, tag=0, payload=payload)
        payload[:] = -1.0
        out = comm.irecv(1, 0, tag=0).wait()
        assert np.array_equal(out, np.arange(4.0))

    def test_tag_matching(self):
        comm = SimComm(2)
        comm.isend(0, 1, tag=1, payload=np.array([1.0]))
        comm.isend(0, 1, tag=2, payload=np.array([2.0]))
        assert comm.irecv(1, 0, tag=2).wait()[0] == 2.0
        assert comm.irecv(1, 0, tag=1).wait()[0] == 1.0

    def test_fifo_for_identical_envelopes(self):
        """Non-overtaking: same (src, dst, tag) arrives in post order."""
        comm = SimComm(2)
        for v in (1.0, 2.0, 3.0):
            comm.isend(0, 1, tag=5, payload=np.array([v]))
        got = [comm.irecv(1, 0, tag=5).wait()[0] for _ in range(3)]
        assert got == [1.0, 2.0, 3.0]

    def test_self_send(self):
        comm = SimComm(1)
        comm.isend(0, 0, tag=0, payload=np.array([4.0]))
        assert comm.irecv(0, 0, tag=0).wait()[0] == 4.0

    def test_unmatched_wait_raises(self):
        comm = SimComm(2)
        with pytest.raises(RuntimeError, match="deadlock"):
            comm.irecv(1, 0, tag=9).wait()

    def test_rank_range_checked(self):
        comm = SimComm(2)
        with pytest.raises(ValueError):
            comm.isend(0, 2, tag=0, payload=np.zeros(1))
        with pytest.raises(ValueError):
            comm.irecv(-1, 0, tag=0)

    def test_wait_is_idempotent(self):
        comm = SimComm(2)
        comm.isend(0, 1, tag=0, payload=np.array([1.0]))
        req = comm.irecv(1, 0, tag=0)
        a = req.wait()
        b = req.wait()
        assert a is b

    def test_waitall(self):
        comm = SimComm(2)
        comm.isend(0, 1, tag=0, payload=np.array([1.0]))
        comm.isend(0, 1, tag=1, payload=np.array([2.0]))
        reqs = [comm.irecv(1, 0, tag=t) for t in (0, 1)]
        outs = comm.waitall(reqs)
        assert [o[0] for o in outs] == [1.0, 2.0]

    def test_send_request_wait_is_noop(self):
        comm = SimComm(2)
        req = comm.isend(0, 1, tag=0, payload=np.zeros(3))
        req.wait()
        assert req.nbytes == 24


class TestStats:
    def test_counters(self):
        comm = SimComm(2)
        comm.isend(0, 1, tag=0, payload=np.zeros(10))
        comm.isend(1, 0, tag=0, payload=np.zeros(5))
        assert comm.sent_messages == 2
        assert comm.sent_bytes == 120
        assert comm.bytes_by_pair[(0, 1)] == 80

    def test_assert_drained_clean(self):
        comm = SimComm(2)
        comm.isend(0, 1, tag=0, payload=np.zeros(1))
        comm.irecv(1, 0, tag=0).wait()
        comm.assert_drained()

    def test_assert_drained_detects_leftovers(self):
        comm = SimComm(2)
        comm.isend(0, 1, tag=0, payload=np.zeros(1))
        with pytest.raises(RuntimeError, match="undelivered"):
            comm.assert_drained()

    def test_assert_drained_names_each_leaking_mailbox(self):
        comm = SimComm(3)
        comm.isend(0, 1, tag=3, payload=np.zeros(1))
        comm.isend(0, 1, tag=3, payload=np.zeros(1))
        comm.isend(2, 0, tag=7, payload=np.zeros(1))
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
        comm.isend(0, 1, tag=0, payload=np.arange(3.0))
        msg = comm.try_match(1, 0, tag=0)
        assert np.array_equal(msg.payload, np.arange(3.0))
        assert msg.seq == 0

    def test_sequence_numbers_are_per_envelope(self):
        comm = SimComm(2)
        for _ in range(2):
            comm.isend(0, 1, tag=0, payload=np.zeros(1))
        comm.isend(0, 1, tag=1, payload=np.zeros(1))
        assert comm.try_match(1, 0, tag=0).seq == 0
        assert comm.try_match(1, 0, tag=0).seq == 1
        assert comm.try_match(1, 0, tag=1).seq == 0

    def test_delay_parks_until_released(self):
        from repro.faults.injector import FaultAction

        comm = SimComm(2)
        comm.isend(0, 1, tag=0, payload=np.array([9.0]),
                   fault=FaultAction("delay"))
        assert comm.try_match(1, 0, tag=0) is None
        assert comm.release_delayed(1, 0, tag=0) == 1
        assert comm.try_match(1, 0, tag=0).payload[0] == 9.0
        assert comm.release_delayed(1, 0, tag=0) == 0

    def test_retransmit_resends_pristine_payload(self):
        from repro.faults.injector import FaultAction

        comm = SimComm(2)
        payload = np.arange(4.0)
        comm.isend(0, 1, tag=0, payload=payload, checksum=123,
                   fault=FaultAction("corrupt", corrupt_byte=2, corrupt_bit=5))
        corrupted = comm.try_match(1, 0, tag=0)
        assert not np.array_equal(corrupted.payload, payload)
        nbytes = comm.retransmit(1, 0, tag=0)
        assert nbytes == payload.nbytes
        assert comm.retransmissions == 1
        fresh = comm.try_match(1, 0, tag=0)
        # same envelope identity (seq, checksum), uncorrupted data
        assert np.array_equal(fresh.payload, payload)
        assert fresh.seq == corrupted.seq
        assert fresh.checksum == 123

    def test_retransmit_without_prior_send_is_protocol_bug(self):
        from repro.comm import UnmatchedReceiveError

        comm = SimComm(2)
        with pytest.raises(UnmatchedReceiveError, match="nothing was ever sent"):
            comm.retransmit(1, 0, tag=4)

    def test_discard_stale_drops_old_sequence_numbers(self):
        comm = SimComm(2)
        for _ in range(3):
            comm.isend(0, 1, tag=0, payload=np.zeros(1))
        assert comm.discard_stale(1, 0, tag=0, below_seq=2) == 2
        assert comm.try_match(1, 0, tag=0).seq == 2

    def test_reset_in_flight_purges_everything(self):
        from repro.faults.injector import FaultAction

        comm = SimComm(2)
        comm.isend(0, 1, tag=0, payload=np.zeros(1))
        comm.isend(0, 1, tag=1, payload=np.zeros(1),
                   fault=FaultAction("delay"))
        assert comm.in_flight() == {(1, 0, 0): 1, (1, 0, 1): 1}
        assert comm.reset_in_flight() == 2
        comm.assert_drained()


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
        comm.isend(0, 1, tag=7, payload=np.arange(4.0), level=2)
        (span,) = tracer.children[0].spans
        assert span.name == "isend"
        assert span.attrs == {
            "l": 2, "src": 0, "dst": 1, "tag": 7, "bytes": 32, "seq": 0,
        }

    def test_matched_receive_lands_on_receiver_timeline(self):
        from repro.obs import Tracer

        tracer = Tracer()
        comm = SimComm(2, tracer=tracer)
        comm.isend(0, 1, tag=7, payload=np.arange(4.0), level=1)
        comm.irecv(1, 0, tag=7, level=1).wait()
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
        comm.isend(0, 1, tag=0, payload=np.zeros(8))
        comm.irecv(1, 0, tag=0).wait()
        send = tracer.children[0].spans[0]
        recv = tracer.children[1].spans[0]
        assert send.end <= recv.start

    def test_retransmit_traced_with_original_seq(self):
        from repro.faults.injector import FaultAction
        from repro.obs import Tracer

        tracer = Tracer()
        comm = SimComm(2, tracer=tracer)
        comm.isend(0, 1, tag=3, payload=np.zeros(2), fault=FaultAction("drop"))
        comm.retransmit(1, 0, tag=3, level=0)
        names = [s.name for s in tracer.children[0].spans]
        assert names == ["isend", "retransmit"]
        assert tracer.children[0].spans[1].attrs["seq"] == 0

    def test_waitall_wraps_batch_on_root_timeline(self):
        from repro.obs import Tracer

        tracer = Tracer()
        comm = SimComm(2, tracer=tracer)
        comm.isend(0, 1, tag=0, payload=np.zeros(1))
        comm.isend(1, 0, tag=0, payload=np.zeros(1))
        reqs = [comm.irecv(1, 0, tag=0), comm.irecv(0, 1, tag=0)]
        comm.waitall(reqs)
        (span,) = tracer.spans
        assert span.name == "waitall" and span.attrs == {"n": 2}
        # the receives completed inside it, on their own timelines
        assert tracer.children[0].spans and tracer.children[1].spans

    def test_untraced_comm_records_nothing(self):
        comm = SimComm(2)
        comm.isend(0, 1, tag=0, payload=np.zeros(1))
        comm.irecv(1, 0, tag=0).wait()
        assert not comm.tracer.enabled
