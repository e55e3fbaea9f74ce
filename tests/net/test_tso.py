"""TSO segmentation at the sender."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.net.addr import FiveTuple
from repro.net.constants import (
    MSS,
    MAX_TSO_PAYLOAD,
    transmit_time_ns,
    wire_bytes,
)
from repro.net.flags import TcpFlags
from repro.net.packet import Packet
from repro.net.tso import segment_tso_burst

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


# -- one header per burst: stamped == constructed ------------------------------


@given(
    seq=st.integers(0, 1 << 32),
    nbytes=st.integers(1, MAX_TSO_PAYLOAD)
    | st.integers(1, MAX_TSO_PAYLOAD // MSS).map(lambda n: n * MSS),
    options=st.sampled_from([(), ("ts", 1), (("sack_ok",), ("ts", 7, 9))]),
    priority=st.integers(0, 1),
    tso_id=st.none() | st.integers(0, 1 << 20),
    sent_at=st.integers(0, 1 << 40),
    push_last=st.booleans(),
    is_retransmission=st.booleans(),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_stamped_burst_equals_constructed_slot_for_slot(
        seq, nbytes, options, priority, tso_id, sent_at, push_last,
        is_retransmission):
    """Every packet of a burst is, over every name in ``Packet.__slots__``,
    the packet the keyword constructor builds for that byte range — a slot
    added to ``Packet`` and forgotten by the stamp is an ``AttributeError``
    naming it here."""
    packets = segment_tso_burst(
        FLOW, seq, nbytes, sent_at=sent_at, priority=priority,
        options=options, push_last=push_last,
        is_retransmission=is_retransmission, tso_id=tso_id)
    assert sum(p.payload_len for p in packets) == nbytes
    # Pids are drawn in wire order, one per packet, nothing in between.
    assert [p.pid - packets[0].pid for p in packets] == list(range(len(packets)))
    offset = 0
    for packet in packets:
        chunk = min(MSS, nbytes - offset)
        flags = TcpFlags.ACK
        if push_last and offset + chunk == nbytes:
            flags |= TcpFlags.PSH
        built = Packet(FLOW, seq + offset, chunk, flags=flags,
                       options=options, priority=priority, tso_id=tso_id,
                       sent_at=sent_at, is_retransmission=is_retransmission)
        for name in Packet.__slots__:
            if name != "pid":
                assert getattr(packet, name) == getattr(built, name), name
        # Per-TSO routing hashes (flow, tso_id): the flow is one object.
        assert packet.flow is FLOW
        offset += chunk


def test_ce_mark_on_one_packet_leaves_its_burst_mates_alone():
    """The burst shares one ``sig`` tuple, which is only safe because
    ``mark_ce`` rebinds it."""
    packets = segment_tso_burst(FLOW, 0, 4 * MSS, options=("ts", 1))
    clean = Packet(FLOW, 0, MSS, options=("ts", 1)).sig
    packets[1].mark_ce()
    assert packets[1].ce and packets[1].sig == (("ts", 1), True, clean[2])
    for mate in packets[:1] + packets[2:]:
        assert not mate.ce
        assert mate.sig == clean
