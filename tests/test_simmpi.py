"""Simulated MPI semantics: the ledger, dead ranks, held headers, the
drain check and collectives — and the fate of one header, replayed by
``ResilientChannel`` on ``SimComm(2)``.

``SimComm`` matches nothing: a channel keeps the header it posts (size,
checksum, the fault the injector drew) and its receive works out, in
place, what the wire did.  Only headers that outlive their receive — a
duplicate's extra copy, or what an aborted phase had posted — are held
on the communicator.
"""

import numpy as np
import pytest

from repro.comm import (
    ExchangeFaultError,
    ResilientChannel,
    SimComm,
    UnmatchedReceiveError,
    payload_checksum,
)
from repro.comm.simmpi import RankDeadError
from repro.faults.injector import FaultAction
from repro.instrument import Recorder

DROP, DUP, DELAY = FaultAction("drop"), FaultAction("duplicate"), FaultAction("delay")
CORRUPT = FaultAction("corrupt", corrupt_byte=35, corrupt_bit=13)
#: 32 bytes
PAYLOAD = np.arange(4, dtype=np.float64)


class Scripted:
    """Injector stand-in: strikes the headers posted — retransmissions
    included, in posting order — with ``actions`` (``None``: spared),
    then none."""

    vcycle = 0

    def __init__(self, *actions):
        self.actions = list(actions)

    def message_action(self, *args):
        return self.actions.pop(0) if self.actions else None

    def crashes_due(self, level=None):
        return []


def channel(comm, *actions, max_retries=3, injector=True):
    recorder = Recorder()
    ch = ResilientChannel(
        comm, recorder=recorder, max_retries=max_retries,
        injector=Scripted(*actions) if injector else None,
    )
    return ch, recorder


def post(ch, tag=5, src=0, dst=1, payload=PAYLOAD, level=0):
    checksum = None if ch.injector is None else payload_checksum(payload)
    ch._send(level, src, dst, tag, None, payload.nbytes, None, checksum=checksum)


def receive(ch, tag=5, src=0, dst=1, payload=PAYLOAD, level=0):
    ch._receive(level, dst, src, tag, payload.nbytes, lambda: payload)


def kinds(recorder):
    return [f.kind for f in recorder.faults]


class TestPointToPoint:
    def test_send_recv_roundtrip(self):
        comm = SimComm(2)
        ch, recorder = channel(comm)
        post(ch, tag=7)
        assert comm.pending == 0  # the header is the channel's until received
        receive(ch, tag=7)
        assert comm.pending == 0 and kinds(recorder) == []
        assert comm.ledger == {(0, 0, 1): [1, 32, 0]}

    def test_header_carries_no_payload(self):
        """The communicator holds sizes, never bytes, and has no mailbox
        to post to or match from."""
        comm = SimComm(2)
        ch, _ = channel(comm, DUP)
        post(ch)
        receive(ch)
        assert comm.take_held(1, 0, 5) == [32]
        for name in ("irecv", "waitall", "isend", "try_match", "retransmit",
                     "release_delayed", "discard_stale"):
            assert not hasattr(SimComm, name), name

    def test_tag_matching(self):
        comm = SimComm(2)
        ch, recorder = channel(comm)
        post(ch, tag=1, payload=PAYLOAD[:1])
        post(ch, tag=2, payload=PAYLOAD[:2])
        receive(ch, tag=2, payload=PAYLOAD[:2])
        receive(ch, tag=1, payload=PAYLOAD[:1])
        assert kinds(recorder) == [] and comm.pending == 0

    def test_fifo_for_identical_envelopes(self):
        """The older header on an envelope is met first — and judged
        stale, whichever channel finds it: a coarser level's exchanger
        meeting a finer level's leftover duplicate does not take it
        for a corrupted header of its own."""
        comm = SimComm(2)
        fine, fine_log = channel(comm, DUP)
        coarse, coarse_log = channel(comm)
        post(fine, payload=PAYLOAD)
        receive(fine, payload=PAYLOAD)
        post(coarse, payload=PAYLOAD[:1], level=1)
        receive(coarse, payload=PAYLOAD[:1], level=1)
        assert kinds(fine_log) == []
        assert [(f.kind, f.nbytes, f.level) for f in coarse_log.faults] == [
            ("detect_duplicate", 32, 1)
        ]
        assert comm.pending == 0 and comm.retransmissions == 0

    def test_self_send(self):
        comm = SimComm(1)
        ch, _ = channel(comm)
        post(ch, src=0, dst=0)
        receive(ch, src=0, dst=0)
        assert comm.ledger == {(0, 0, 0): [1, 32, 0]}

    def test_unmatched_wait_raises(self):
        """A receive with no posted header is a deadlock (a protocol
        bug), with an injector or without."""
        comm = SimComm(2)
        with pytest.raises(UnmatchedReceiveError, match="deadlock"):
            ResilientChannel(comm)._receive(0, 1, 0, 9, 8, lambda: None)
        comm.assert_drained()

    def test_rank_range_checked(self):
        ch, _ = channel(SimComm(2), injector=False)
        with pytest.raises(ValueError):
            post(ch, src=0, dst=2)
        with pytest.raises(ValueError):
            post(ch, src=-1, dst=0)


class TestStats:
    def test_counters(self):
        comm = SimComm(2)
        ch, _ = channel(comm, injector=False)
        post(ch, src=0, dst=1, payload=np.zeros(10))
        post(ch, src=1, dst=0, payload=np.zeros(5))
        assert comm.sent_messages == 2
        assert comm.sent_bytes == 120
        assert comm.bytes_by_pair[(0, 1)] == 80

    def test_ledger_rows_per_level_and_pair(self):
        comm = SimComm(3)
        ch, _ = channel(comm, None, None, None, DROP)
        post(ch, 0, 0, 1, PAYLOAD[:1], level=0)
        post(ch, 1, 0, 1, PAYLOAD[:2], level=0)
        post(ch, 0, 2, 1, PAYLOAD[:0], level=1)
        receive(ch, 0, 0, 1, PAYLOAD[:1], level=0)
        receive(ch, 1, 0, 1, PAYLOAD[:2], level=0)
        receive(ch, 0, 2, 1, PAYLOAD[:0], level=1)
        post(ch, 3, 0, 1, PAYLOAD[:1], level=0)  # dropped, then resent
        receive(ch, 3, 0, 1, PAYLOAD[:1], level=0)
        comm.account_sends([((2, 1, 0), 3, 96)])
        assert comm.ledger == {
            (0, 0, 1): [4, 40, 1], (1, 2, 1): [1, 0, 0], (2, 1, 0): [3, 96, 0],
        }
        assert comm.retransmissions == 1

    def test_assert_drained_clean(self):
        comm = SimComm(2)
        ch, _ = channel(comm)
        post(ch)
        receive(ch)
        assert ch.drain_stale() == 0
        comm.assert_drained()

    def test_assert_drained_detects_leftovers(self):
        """A header posted and never received is left for the drain
        check to name, not discarded as stale."""
        comm = SimComm(2)
        ch, recorder = channel(comm)
        post(ch)
        assert ch.drain_stale() == 0 and kinds(recorder) == []
        with pytest.raises(RuntimeError, match="undelivered"):
            comm.assert_drained()

    def test_assert_drained_names_each_leaking_mailbox(self):
        comm = SimComm(3)
        comm.hold(1, 0, 3, [8, 8])
        comm.hold(0, 2, 7, [8])
        with pytest.raises(RuntimeError) as exc:
            comm.assert_drained()
        assert "2 envelope(s)" in str(exc.value)
        assert "dst=1 src=0 tag=3: 2 pending" in str(exc.value)
        assert "dst=0 src=2 tag=7: 1 pending" in str(exc.value)


#: (actions struck on the header and its resends, events the receive
#: records, ledger row, headers held after the receive)
FATES = {
    "clean": ((), [], [1, 32, 0], 0),
    "drop": ((DROP,), ["detect_drop", "retry", "retransmit"], [2, 64, 1], 0),
    "corrupt": (
        (CORRUPT,), ["detect_corrupt", "retry", "retransmit"], [2, 64, 1], 0,
    ),
    "duplicate": ((DUP,), [], [1, 32, 0], 1),
    "delay": ((DELAY,), ["detect_delay", "retry"], [1, 32, 0], 0),
    "resend-struck-again": (
        (DROP, CORRUPT),
        ["detect_drop", "retry", "retransmit",
         "detect_corrupt", "retry", "retransmit"],
        [3, 96, 2], 0,
    ),
    "resend-delayed": (
        (CORRUPT, DELAY),
        ["detect_corrupt", "retry", "retransmit", "detect_delay", "retry"],
        [2, 64, 1], 0,
    ),
    "resend-duplicated": (
        (DROP, DUP), ["detect_drop", "retry", "retransmit"], [2, 64, 1], 1,
    ),
}


class TestFaultTransport:
    """The fate of one header, replayed by its receive."""

    @pytest.mark.parametrize("name", list(FATES))
    def test_fate_of_one_header(self, name):
        actions, events, row, held = FATES[name]
        comm = SimComm(2)
        ch, recorder = channel(comm, *actions)
        post(ch)
        receive(ch)
        assert kinds(recorder) == events
        assert comm.ledger == {(0, 0, 1): row}
        assert comm.pending == held
        assert ch.drain_stale() == held
        assert kinds(recorder)[len(events):] == ["detect_duplicate"] * held
        comm.assert_drained()

    @pytest.mark.parametrize("last", ["dropped", "late"])
    def test_exhausted_budget_leaves_the_phase_pending(self, last):
        """The receive gives up after ``max_retries`` resends; what the
        phase still has in flight — its unreceived headers, a
        duplicate's two copies, a resend that landed too late — is
        left for the recovery's purge."""
        comm = SimComm(2)
        if last == "dropped":
            ch, recorder = channel(comm, DROP, None, DUP, DROP, DROP, max_retries=2)
            want = {(1, 0, 6): 1, (1, 0, 7): 2}
        else:
            ch, recorder = channel(comm, DROP, None, DUP, DELAY, max_retries=1)
            want = {(1, 0, 5): 1, (1, 0, 6): 1, (1, 0, 7): 2}
        for tag in (5, 6, 7):
            post(ch, tag=tag)
        with pytest.raises(ExchangeFaultError, match="gave up") as exc:
            receive(ch, tag=5)
        assert exc.value.attempts == ch.max_retries
        assert kinds(recorder)[-1] in ("detect_drop", "detect_delay")
        assert comm.in_flight() == want
        assert comm.reset_in_flight() == sum(want.values())
        comm.assert_drained()

    def test_drop_posts_nothing_but_is_accounted(self):
        comm = SimComm(2)
        ch, recorder = channel(comm, DROP)
        post(ch)
        assert comm.pending == 0 and comm.sent_messages == 1
        receive(ch)
        assert comm.sent_messages == 2 and comm.retransmissions == 1

    def test_duplicate_delivers_the_same_header_twice(self):
        """One copy is received; the other is held on the envelope and
        discarded as stale by the next receive there."""
        comm = SimComm(2)
        ch, recorder = channel(comm, DUP)
        post(ch)
        receive(ch)
        assert comm.in_flight() == {(1, 0, 5): 1}
        post(ch)
        receive(ch)
        assert [(f.kind, f.nbytes) for f in recorder.faults] == [
            ("detect_duplicate", 32)
        ]
        assert comm.pending == 0

    def test_corrupt_records_the_flip_in_the_header(self):
        """The flip strikes a copy the checksum is taken over: the
        receiver's bytes are never touched, the sum fails."""
        comm = SimComm(2)
        ch, recorder = channel(comm, CORRUPT)
        payload = PAYLOAD.copy()
        post(ch, payload=payload)
        seen = []

        def own_bytes():
            seen.append(payload_checksum(payload))
            return payload

        ch._receive(0, 1, 0, 5, payload.nbytes, own_bytes)
        assert kinds(recorder)[0] == "detect_corrupt"
        # read for the struck copy and for the resend, never written
        assert seen == [payload_checksum(PAYLOAD)] * 2
        np.testing.assert_array_equal(payload, PAYLOAD)
        flipped = payload_checksum(PAYLOAD, (35 % 32, 13 % 8))
        assert flipped != payload_checksum(PAYLOAD)

    def test_delay_parks_until_released(self):
        """A late header lands on the first retry: no resend."""
        comm = SimComm(2)
        ch, recorder = channel(comm, DELAY)
        post(ch)
        assert comm.pending == 0
        receive(ch)
        assert kinds(recorder) == ["detect_delay", "retry"]
        assert comm.retransmissions == 0 and comm.pending == 0

    def test_retransmit_resends_pristine_payload(self):
        """The resend carries the original checksum, nothing flipped."""
        comm = SimComm(2)
        ch, recorder = channel(comm, CORRUPT)
        post(ch)
        receive(ch)
        assert kinds(recorder) == ["detect_corrupt", "retry", "retransmit"]
        assert [f.nbytes for f in recorder.faults] == [32, 32, 32]
        assert comm.retransmissions == 1

    def test_retransmit_without_prior_send_is_protocol_bug(self):
        """Under an injector too, a receive with no posted header asks
        for no resend: it raises."""
        comm = SimComm(2)
        ch, recorder = channel(comm)
        with pytest.raises(UnmatchedReceiveError, match="never sent"):
            receive(ch, tag=4)
        assert kinds(recorder) == [] and comm.sent_messages == 0

    def test_reset_in_flight_purges_everything(self):
        comm = SimComm(2)
        comm.hold(1, 0, 0, [8])
        comm.hold(1, 0, 1, [8, 8])
        assert comm.in_flight() == {(1, 0, 0): 1, (1, 0, 1): 2}
        assert comm.reset_in_flight() == 3
        comm.assert_drained()


class TestDeadRanks:
    def test_every_touch_of_a_dead_endpoint_raises(self):
        comm = SimComm(3)
        ch, _ = channel(comm, injector=False)
        post(ch, src=1, dst=0)
        comm.kill(1)
        with pytest.raises(RankDeadError, match="rank 1"):
            post(ch, src=0, dst=1)
        with pytest.raises(RankDeadError, match="receive from rank 1"):
            receive(ch, src=1, dst=0)
        with pytest.raises(RankDeadError):
            comm.allreduce_max([0.0, 0.0, 0.0])
        assert comm.pending == 1  # the aborted phase's header, held
        post(ch, src=0, dst=2)  # survivors still talk
        receive(ch, src=0, dst=2)

    def test_repair_purges_forgets_sequences_and_revives(self):
        """Repair purges what was held; a channel needs no reset to
        talk over the repaired communicator."""
        comm = SimComm(2)
        ch, _ = channel(comm, DUP)
        post(ch)
        receive(ch)
        comm.kill(1)
        assert comm.repair(revive=[1]) == 1
        assert comm.dead_ranks() == () and comm.repairs == 1
        post(ch)
        receive(ch)
        assert comm.pending == 0


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
    def test_untraced_comm_records_nothing(self):
        """The communicator has no tracer; an untraced channel's headers
        leave no span anywhere."""
        comm = SimComm(2)
        ch, _ = channel(comm, DUP)
        post(ch)
        receive(ch)
        ch.drain_stale()
        assert not hasattr(comm, "tracer")
        assert not ch.tracer.enabled
