"""FiveTuple and TCP flag semantics."""

import pickle

from repro.net.addr import FiveTuple
from repro.net.flags import TcpFlags


def test_reversed_swaps_endpoints():
    flow = FiveTuple(1, 2, 1000, 80)
    rev = flow.reversed()
    assert rev == FiveTuple(2, 1, 80, 1000)
    assert rev.reversed() == flow


def test_reversed_is_one_object_per_direction():
    flow = FiveTuple(1, 2, 1000, 80)
    assert flow.reversed() is flow.reversed()
    assert flow.reversed().reversed() is flow
    assert hash(flow.reversed()) == hash(FiveTuple(2, 1, 80, 1000))


def test_pickling_carries_the_value_not_the_cached_reverse():
    flow = FiveTuple(1, 2, 1000, 80, 132)
    fresh = pickle.dumps(flow)
    reverse = flow.reversed()
    assert pickle.dumps(flow) == fresh
    copy = pickle.loads(fresh)
    assert copy == flow and hash(copy) == hash(flow)
    assert copy.rss_hash() == flow.rss_hash()
    assert copy.reversed() == reverse and copy.reversed() is not reverse
    assert copy.reversed().reversed() is copy


def test_default_protocol_is_tcp():
    assert FiveTuple(1, 2, 3, 4).proto == 6


def test_rss_hash_deterministic():
    flow = FiveTuple(1, 2, 1000, 80)
    assert flow.rss_hash() == FiveTuple(1, 2, 1000, 80).rss_hash()


def test_rss_hash_differs_across_flows():
    hashes = {FiveTuple(1, 2, 1000 + i, 80).rss_hash() for i in range(64)}
    assert len(hashes) == 64


def test_rss_hash_spreads_over_queues():
    # 256 flows over 16 queues: no queue should be empty or hog everything.
    counts = [0] * 16
    for i in range(256):
        counts[FiveTuple(i, 99, 5000 + i, 80).rss_hash() % 16] += 1
    assert min(counts) > 0
    assert max(counts) < 64


def test_str_rendering():
    assert str(FiveTuple(1, 2, 1000, 80)) == "1:1000->2:80/6"


def test_push_forces_flush():
    assert (TcpFlags.ACK | TcpFlags.PSH).forces_flush


def test_urgent_forces_flush():
    assert (TcpFlags.ACK | TcpFlags.URG).forces_flush


def test_syn_fin_rst_force_flush():
    for flag in (TcpFlags.SYN, TcpFlags.FIN, TcpFlags.RST):
        assert flag.forces_flush


def test_plain_ack_does_not_force_flush():
    assert not TcpFlags.ACK.forces_flush


def test_ece_cwr_do_not_force_flush():
    assert not (TcpFlags.ACK | TcpFlags.ECE | TcpFlags.CWR).forces_flush
