"""TSO segmentation at the sender."""

import pytest

from repro.net import FiveTuple, MSS, MAX_TSO_PAYLOAD, TcpFlags, segment_tso_burst
from repro.net.constants import transmit_time_ns, wire_bytes

FLOW = FiveTuple(1, 2, 1000, 80)


def test_cuts_into_mss_packets():
    packets = segment_tso_burst(FLOW, 0, 3 * MSS)
    assert [p.payload_len for p in packets] == [MSS, MSS, MSS]
    assert [p.seq for p in packets] == [0, MSS, 2 * MSS]


def test_runt_tail_packet():
    packets = segment_tso_burst(FLOW, 0, MSS + 100)
    assert [p.payload_len for p in packets] == [MSS, 100]


def test_contiguous_sequence_space():
    packets = segment_tso_burst(FLOW, 500, 5 * MSS)
    for prev, nxt in zip(packets, packets[1:]):
        assert prev.end_seq == nxt.seq


def test_push_on_last_packet_only():
    packets = segment_tso_burst(FLOW, 0, 3 * MSS, push_last=True)
    assert not any(p.flags & TcpFlags.PSH for p in packets[:-1])
    assert packets[-1].flags & TcpFlags.PSH


def test_no_push_when_disabled():
    packets = segment_tso_burst(FLOW, 0, 3 * MSS, push_last=False)
    assert not any(p.flags & TcpFlags.PSH for p in packets)


def test_shares_one_tso_id():
    packets = segment_tso_burst(FLOW, 0, 4 * MSS, tso_id=7)
    assert {p.tso_id for p in packets} == {7}


def test_distinct_bursts_distinct_ids():
    # The caller numbers its bursts (see TcpSender); nothing is global.
    a = segment_tso_burst(FLOW, 0, MSS, tso_id=0)
    b = segment_tso_burst(FLOW, MSS, MSS, tso_id=1)
    assert a[0].tso_id != b[0].tso_id
    assert segment_tso_burst(FLOW, 0, MSS)[0].tso_id is None


def test_clamps_to_max_tso():
    packets = segment_tso_burst(FLOW, 0, 10 * MAX_TSO_PAYLOAD)
    assert sum(p.payload_len for p in packets) == MAX_TSO_PAYLOAD


def test_zero_bytes_rejected():
    with pytest.raises(ValueError):
        segment_tso_burst(FLOW, 0, 0)


def test_retransmission_flag_propagates():
    packets = segment_tso_burst(FLOW, 0, 2 * MSS, is_retransmission=True)
    assert all(p.is_retransmission for p in packets)


def test_priority_propagates():
    packets = segment_tso_burst(FLOW, 0, 2 * MSS, priority=0)
    assert all(p.priority == 0 for p in packets)


def test_transmit_time_scales_with_rate():
    assert transmit_time_ns(MSS, 40.0) * 4 == pytest.approx(
        transmit_time_ns(MSS, 10.0), rel=0.01)


def test_wire_bytes_monotone():
    assert wire_bytes(100) < wire_bytes(1460)
