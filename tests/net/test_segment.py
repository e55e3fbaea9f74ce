"""Merged-segment (sk_buff batching) semantics — Figure 3."""

import pytest

from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.flags import TcpFlags
from repro.net.packet import Packet
from repro.net.segment import BatchingMode, Segment

FLOW = FiveTuple(1, 2, 1000, 80)


def pkt(seq, size=MSS, **kw):
    return Packet(FLOW, seq, size, **kw)


def test_empty_segment_rejected():
    with pytest.raises(ValueError):
        Segment([])


def test_single_packet_segment():
    seg = Segment([pkt(0)])
    assert seg.seq == 0
    assert seg.end_seq == MSS
    assert seg.mtus == 1
    assert seg.contiguous


def test_append_extends_tail():
    seg = Segment([pkt(0)])
    nxt = pkt(MSS)
    assert seg.can_append(nxt)
    seg.append(nxt)
    assert seg.end_seq == 2 * MSS
    assert seg.mtus == 2
    assert seg.contiguous


def test_append_rejects_gap():
    seg = Segment([pkt(0)])
    assert not seg.can_append(pkt(2 * MSS))


def test_append_rejects_signature_mismatch():
    seg = Segment([pkt(0)])
    assert not seg.can_append(pkt(MSS, ce=True))


def test_append_rejects_when_full():
    seg = Segment([pkt(0)])
    assert not seg.can_append(pkt(MSS), max_payload=MSS)


def test_closed_segment_rejects_append():
    seg = Segment([pkt(0, flags=TcpFlags.ACK | TcpFlags.PSH)])
    assert seg.closed
    assert not seg.can_append(pkt(MSS))


def test_prepend_extends_head():
    seg = Segment([pkt(MSS)])
    prev = pkt(0)
    assert seg.can_prepend(prev)
    seg.prepend(prev)
    assert seg.seq == 0
    assert seg.mtus == 2
    assert seg.contiguous


def test_prepend_rejects_gap():
    seg = Segment([pkt(2 * MSS)])
    assert not seg.can_prepend(pkt(0))


def test_psh_packet_can_only_be_tail():
    seg = Segment([pkt(MSS)])
    psh = pkt(0, flags=TcpFlags.ACK | TcpFlags.PSH)
    assert not seg.can_prepend(psh)


def test_extend_folds_adjacent_segment():
    a = Segment([pkt(0)])
    b = Segment([pkt(MSS), pkt(2 * MSS)])
    assert a.can_extend(b)
    a.extend(b)
    assert a.end_seq == 3 * MSS
    assert a.mtus == 3


def test_extend_rejects_signature_mismatch():
    a = Segment([pkt(0)])
    b = Segment([pkt(MSS, options=("x",))])
    assert not a.can_extend(b)


def test_extend_respects_max_payload():
    a = Segment([pkt(0)])
    b = Segment([pkt(MSS)])
    assert not a.can_extend(b, max_payload=MSS)


def test_chain_mode_marks_linked_list():
    seg = Segment.chain([pkt(0), pkt(5 * MSS)])
    assert seg.mode is BatchingMode.LINKED_LIST
    assert not seg.contiguous


def test_frags_mode_default():
    assert Segment([pkt(0)]).mode is BatchingMode.FRAGS_ARRAY


def test_payload_len_sums_packets():
    seg = Segment([pkt(0), pkt(MSS, 100)])
    assert seg.payload_len == MSS + 100


def test_first_sent_at_tracks_minimum():
    a = pkt(0)
    a.sent_at = 50
    b = pkt(MSS)
    b.sent_at = 10
    seg = Segment([a])
    seg.append(b)
    assert seg.first_sent_at == 10


def test_forces_flush_scans_all_packets():
    seg = Segment([pkt(0, flags=TcpFlags.ACK | TcpFlags.URG), pkt(MSS)])
    assert seg.forces_flush
