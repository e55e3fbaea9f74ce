"""The six flushing conditions of Table 2."""

from tests.core.helpers import pkt

from repro.core.flush import FlushReason
from repro.net.constants import MSS, MAX_GRO_SEGMENT
from repro.net.flags import TcpFlags
from repro.sim.time import US


def established(harness, now=0):
    """Drive a flow out of build-up: one packet, one inseq flush."""
    harness.receive(pkt(0), now)
    harness.engine.check_timeouts(now + 20 * US)
    harness.log.clear()
    return harness.entry()


def test_retransmission_flushed_immediately(harness):
    established(harness)
    harness.receive(pkt(0), now=30 * US)  # wholly before seq_next
    assert harness.reasons() == [FlushReason.RETRANSMISSION]
    assert harness.delivered_ranges() == [(0, MSS)]
    # Never buffered (Figure 6).
    assert len(harness.entry().ofo) == 0


def test_straddling_retransmission_advances_watermark(harness):
    entry = established(harness)
    harness.receive(pkt(0, 2 * MSS), now=30 * US)  # covers old + new bytes
    assert harness.reasons() == [FlushReason.RETRANSMISSION]
    assert entry.seq_next == 2 * MSS


def test_segment_full_flush(harness):
    established(harness)
    packets_needed = MAX_GRO_SEGMENT // MSS  # fills up to the 64 KB cap
    for i in range(1, packets_needed + 2):
        harness.receive(pkt(i * MSS), now=30 * US)
    assert FlushReason.SEGMENT_FULL in harness.reasons()
    seg = harness.log[0][0]
    assert seg.payload_len + MSS > MAX_GRO_SEGMENT


def test_flags_flush_on_push(harness):
    established(harness)
    harness.receive(pkt(MSS), now=30 * US)
    harness.receive(pkt(2 * MSS, flags=TcpFlags.ACK | TcpFlags.PSH),
                    now=31 * US)
    assert harness.reasons() == [FlushReason.FLAGS]
    assert harness.delivered_ranges() == [(MSS, 3 * MSS)]


def test_flags_flush_on_urgent(harness):
    established(harness)
    harness.receive(pkt(MSS, flags=TcpFlags.ACK | TcpFlags.URG), now=30 * US)
    assert harness.reasons() == [FlushReason.FLAGS]


def test_ooo_push_waits_for_missing_data(harness):
    """A PSH packet that is not yet in sequence must wait for the hole."""
    established(harness)
    harness.receive(pkt(2 * MSS, flags=TcpFlags.ACK | TcpFlags.PSH),
                    now=30 * US)
    assert harness.log == []
    harness.receive(pkt(MSS), now=31 * US)
    assert FlushReason.FLAGS in harness.reasons()
    assert harness.delivered_ranges() == [(MSS, 3 * MSS)]


def test_unmergeable_headers_flush(harness):
    established(harness)
    harness.receive(pkt(MSS), now=30 * US)
    harness.receive(pkt(2 * MSS, ce=True), now=31 * US)
    assert harness.reasons()[0] is FlushReason.UNMERGEABLE
    assert harness.delivered_ranges()[0] == (MSS, 2 * MSS)


def test_inseq_timeout_flush(harness):
    # flush_timestamp is the time of the LAST flush (20us in established()),
    # per §4.1 — the hold clock runs from there, not from packet arrival.
    established(harness)
    harness.receive(pkt(MSS), now=30 * US)
    harness.engine.check_timeouts(now=34 * US)  # 14us since last flush
    assert harness.log == []
    harness.engine.check_timeouts(now=36 * US)  # >= 15us since last flush
    assert harness.reasons() == [FlushReason.INSEQ_TIMEOUT]


def test_ofo_timeout_flushes_everything(harness):
    entry = established(harness)
    harness.receive(pkt(2 * MSS), now=30 * US)
    harness.receive(pkt(4 * MSS), now=31 * US)
    harness.engine.check_timeouts(now=79 * US)  # 49us hole: not yet
    assert harness.log == []
    harness.engine.check_timeouts(now=81 * US)  # 51us: expired
    assert harness.reasons() == [FlushReason.OFO_TIMEOUT] * 2
    assert entry.seq_next == 5 * MSS


def test_duplicate_buffered_bytes_passed_up(harness):
    established(harness)
    harness.receive(pkt(2 * MSS), now=30 * US)
    harness.receive(pkt(2 * MSS), now=31 * US)  # same bytes again
    assert harness.reasons() == [FlushReason.DUPLICATE]
    assert harness.engine.stats.duplicates == 1


def test_pure_ack_passthrough(harness):
    harness.receive(pkt(0, 0))
    assert harness.engine.stats.passthrough_packets == 1
    assert harness.engine.stats.packets == 0
    assert harness.entry() is None  # no flow state for pure ACKs


def test_next_deadline_tracks_earliest(harness):
    harness.receive(pkt(0), now=0)
    # Build-up flow with in-sequence head: inseq deadline at 15us.
    assert harness.engine.next_deadline() == 15 * US
    harness.engine.check_timeouts(now=20 * US)
    harness.receive(pkt(2 * MSS), now=30 * US)  # hole: ofo deadline
    assert harness.engine.next_deadline() == 30 * US + 50 * US


def test_next_deadline_none_when_idle(harness):
    assert harness.engine.next_deadline() is None
    harness.receive(pkt(0))
    harness.engine.check_timeouts(now=20 * US)
    assert harness.engine.next_deadline() is None  # all flushed, no holes


def test_flush_all_drains_and_clears(harness):
    harness.receive(pkt(0))
    harness.receive(pkt(2 * MSS))
    harness.engine.flush_all(now=5 * US)
    assert len(harness.engine.table) == 0
    assert set(harness.reasons()) == {FlushReason.SHUTDOWN}


def test_poll_complete_runs_timeout_checks(harness):
    harness.receive(pkt(0))
    harness.engine.poll_complete(now=20 * US)
    assert harness.reasons() == [FlushReason.INSEQ_TIMEOUT]


def test_in_sequence_stream_single_segment(harness):
    """In-order traffic behaves exactly like standard GRO (§4.4)."""
    for i in range(10):
        harness.receive(pkt(i * MSS), now=i)
    harness.engine.check_timeouts(now=30 * US)
    assert len(harness.log) == 1
    seg = harness.log[0][0]
    assert (seg.seq, seg.end_seq, seg.mtus) == (0, 10 * MSS, 10)


def test_severe_reordering_hidden_from_tcp(harness):
    import random

    rng = random.Random(1)
    order = list(range(30))
    rng.shuffle(order)
    for i, idx in enumerate(order):
        harness.receive(pkt(idx * MSS), now=i * 10)
    harness.engine.check_timeouts(now=30 * US)
    # Everything delivered in order despite fully shuffled arrival.
    ranges = harness.delivered_ranges()
    assert ranges == sorted(ranges)
    assert harness.engine.stats.ooo_segments == 0
