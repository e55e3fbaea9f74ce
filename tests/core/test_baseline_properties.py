"""Property-based conservation tests for the baseline GRO engines."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.chained_gro import ChainedGRO
from repro.core.standard_gro import StandardGRO
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet

FLOW = FiveTuple(1, 2, 1000, 80)


@st.composite
def packet_streams(draw, max_packets=30):
    n = draw(st.integers(min_value=1, max_value=max_packets))
    order = draw(st.permutations(list(range(n))))
    poll_every = draw(st.integers(min_value=1, max_value=8))
    return n, list(order), poll_every


def drive(engine_cls, order, poll_every):
    out = []
    gro = engine_cls(out.append)
    for i, idx in enumerate(order):
        gro.receive(Packet(FLOW, idx * MSS, MSS), now=i * 100)
        if (i + 1) % poll_every == 0:
            gro.poll_complete(now=i * 100)
    gro.flush_all(now=10_000_000)
    return gro, out


@given(packet_streams())
@settings(max_examples=150, deadline=None)
def test_standard_gro_conserves_every_packet(case):
    n, order, poll_every = case
    gro, out = drive(StandardGRO, order, poll_every)
    delivered = sorted(p.seq for s in out for p in s.packets)
    assert delivered == sorted(i * MSS for i in order)


@given(packet_streams())
@settings(max_examples=150, deadline=None)
def test_chained_gro_conserves_and_caps_segments(case):
    n, order, poll_every = case
    gro, out = drive(ChainedGRO, order, poll_every)
    delivered = sorted(p.seq for s in out for p in s.packets)
    assert delivered == sorted(i * MSS for i in order)
    assert all(s.payload_len <= 64 * 1024 for s in out)


@given(packet_streams())
@settings(max_examples=100, deadline=None)
def test_standard_gro_segments_internally_in_order(case):
    """Whatever arrives, each delivered frags[] segment is contiguous."""
    n, order, poll_every = case
    gro, out = drive(StandardGRO, order, poll_every)
    for segment in out:
        for a, b in zip(segment.packets, segment.packets[1:]):
            assert a.end_seq == b.seq


@given(packet_streams())
@settings(max_examples=100, deadline=None)
def test_chained_gro_preserves_arrival_order(case):
    n, order, poll_every = case
    gro, out = drive(ChainedGRO, order, poll_every)
    arrival_pids = []
    for segment in out:
        arrival_pids.extend(p.pid for p in segment.packets)
    # Chains deliver in flush order; packets inside keep arrival order.
    for segment in out:
        pids = [p.pid for p in segment.packets]
        assert pids == sorted(pids)
