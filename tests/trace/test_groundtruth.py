"""The reordering oracle the bounded detector is graded against."""

from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.trace.events import FlowcutPin, PacketRx
from repro.trace.groundtruth import GroundTruthSink, grade

FLOW = FiveTuple(1, 2, 1000, 80)
OTHER = FiveTuple(3, 4, 2000, 80)


def rx(seq, payload=MSS, flow=FLOW, ts=0):
    return PacketRx(ts, flow, seq, seq + payload, payload)


def test_in_order_stream_counts_nothing_reordered():
    sink = GroundTruthSink()
    for i in range(10):
        sink.emit(rx(i * MSS, ts=i))
    truth = sink.per_flow()[FLOW]
    assert truth.packets == 10
    assert truth.reordered_packets == 0
    assert truth.reordered_bytes == 0


def test_late_packet_counts_with_its_bytes():
    sink = GroundTruthSink()
    sink.emit(rx(0))
    sink.emit(rx(2 * MSS))          # skips ahead
    sink.emit(rx(MSS, payload=700))  # arrives late
    truth = sink.per_flow()[FLOW]
    assert truth.reordered_packets == 1
    assert truth.reordered_bytes == 700
    assert sink.totals() == (3, 1, 700)


def test_flows_are_independent_and_acks_skipped():
    sink = GroundTruthSink()
    sink.emit(rx(2 * MSS))
    sink.emit(rx(0))                      # reordered on FLOW
    sink.emit(rx(0, flow=OTHER))          # in order on OTHER
    sink.emit(rx(5 * MSS, payload=0))     # pure ACK: ignored
    assert sink.flows == 2
    assert sink.per_flow()[FLOW].reordered_packets == 1
    assert sink.per_flow()[OTHER].reordered_packets == 0
    assert sink.per_flow()[FLOW].packets == 2


def test_non_rx_events_are_ignored():
    sink = GroundTruthSink()
    sink.emit(FlowcutPin(0, FLOW, "flowcut", 1))
    assert sink.flows == 0


def test_flow_stats_exposes_displacement():
    sink = GroundTruthSink()
    for ts, seq in enumerate((0, 2 * MSS, 3 * MSS, MSS)):
        sink.emit(rx(seq, ts=ts * 1000))
    stats = sink.flow_stats(FLOW)
    assert stats.reordered == 1
    assert stats.max_displacement >= 1
    # An unobserved flow reads as all-zero, not a KeyError.
    assert sink.flow_stats(OTHER).reordered == 0


def test_heavy_reorderers_threshold():
    sink = GroundTruthSink()
    sink.emit(rx(2 * MSS))
    sink.emit(rx(0))  # MSS reordered bytes on FLOW
    sink.emit(rx(0, flow=OTHER))
    assert sink.heavy_reorderers(MSS) == {FLOW}
    assert sink.heavy_reorderers(MSS + 1) == set()


def test_rows_are_sorted_and_stringly_keyed():
    sink = GroundTruthSink()
    sink.emit(rx(0))
    sink.emit(rx(0, flow=OTHER))
    rows = sink.rows()
    assert len(rows) == 2
    assert rows == sorted(rows)
    assert all(isinstance(r[0], str) for r in rows)


def test_grade_precision_recall_and_degenerate_cases():
    assert grade({1, 2}, {1, 2}) == (1.0, 1.0)
    assert grade({1, 2, 3, 4}, {1, 2}) == (0.5, 1.0)
    assert grade({1}, {1, 2}) == (1.0, 0.5)
    assert grade(set(), {1}) == (1.0, 0.0)
    assert grade({1}, set()) == (0.0, 1.0)
    assert grade(set(), set()) == (1.0, 1.0)
