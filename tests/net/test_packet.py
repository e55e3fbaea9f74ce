"""Packet header model."""

from repro.net.addr import FiveTuple
from repro.net.flags import TcpFlags
from repro.net.packet import Packet
from repro.net.constants import ETHERNET_OVERHEAD, HEADER_LEN
from repro.net.pool import PacketPool

FLOW = FiveTuple(1, 2, 1000, 80)


def test_end_seq():
    assert Packet(FLOW, 100, 1460).end_seq == 1560


def test_wire_len_includes_all_overheads():
    packet = Packet(FLOW, 0, 1460)
    assert packet.wire_len == 1460 + HEADER_LEN + ETHERNET_OVERHEAD


def test_pooled_reset_recomputes_wire_len_for_the_new_payload():
    pool = PacketPool()
    first = pool.acquire(FLOW, 0, 1460)
    pool.release(first)
    again = pool.acquire(FLOW, 1460, 200)
    assert again is first
    assert again.wire_len == 200 + HEADER_LEN + ETHERNET_OVERHEAD
    assert again.reset(FLOW, 0, 0).wire_len == HEADER_LEN + ETHERNET_OVERHEAD


def test_packet_ids_unique():
    a, b = Packet(FLOW, 0, 100), Packet(FLOW, 0, 100)
    assert a.pid != b.pid


def test_merge_signature_matches_for_plain_packets():
    a = Packet(FLOW, 0, 1460)
    b = Packet(FLOW, 1460, 1460)
    assert a.sig == b.sig


def test_merge_signature_differs_on_options():
    a = Packet(FLOW, 0, 1460, options=("ts", 1))
    b = Packet(FLOW, 1460, 1460, options=("ts", 2))
    assert a.sig != b.sig


def test_merge_signature_differs_on_ce_mark():
    a = Packet(FLOW, 0, 1460, ce=True)
    b = Packet(FLOW, 1460, 1460, ce=False)
    assert a.sig != b.sig


def test_merge_signature_ignores_psh():
    # PSH ends a batch but does not make headers unmergeable by itself.
    a = Packet(FLOW, 0, 1460, flags=TcpFlags.ACK)
    b = Packet(FLOW, 1460, 1460, flags=TcpFlags.ACK | TcpFlags.PSH)
    assert a.sig == b.sig


def test_merge_signature_differs_on_other_flags():
    a = Packet(FLOW, 0, 1460, flags=TcpFlags.ACK)
    b = Packet(FLOW, 1460, 1460, flags=TcpFlags.ACK | TcpFlags.URG)
    assert a.sig != b.sig


def test_ce_bytes_defaults_to_zero():
    assert Packet(FLOW, 0, 0).ce_bytes == 0
