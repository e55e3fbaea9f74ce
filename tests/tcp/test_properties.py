"""Property-based tests: receiver reassembly and the SACK scoreboard."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet
from repro.net.segment import Segment
from repro.sim.engine import Engine
from repro.tcp.config import TcpConfig
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender

FLOW = FiveTuple(0, 1, 1000, 80)


class NullHost:
    host_id = 1

    def register_handler(self, flow, handler):
        pass

    def unregister_handler(self, flow):
        pass

    def transmit(self, packet):
        pass

    app_core = None


def make_receiver():
    return TcpReceiver(Engine(), NullHost(), FLOW, TcpConfig())


@st.composite
def delivery_orders(draw, max_segments=20):
    n = draw(st.integers(min_value=1, max_value=max_segments))
    order = draw(st.permutations(list(range(n))))
    dups = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                         max_size=6))
    return n, list(order) + dups


@given(delivery_orders())
@settings(max_examples=200, deadline=None)
def test_receiver_reassembles_any_order(case):
    n, order = case
    receiver = make_receiver()
    for idx in order:
        receiver.on_segment(Segment([Packet(FLOW, idx * MSS, MSS)]))
    assert receiver.rcv_nxt == n * MSS
    assert receiver.ooo_buffered_bytes == 0


@given(delivery_orders())
@settings(max_examples=100, deadline=None)
def test_receiver_watermark_monotone(case):
    n, order = case
    receiver = make_receiver()
    marks = []
    receiver.on_bytes = lambda w, now: marks.append(w)
    for idx in order:
        receiver.on_segment(Segment([Packet(FLOW, idx * MSS, MSS)]))
    assert marks == sorted(marks)


@given(delivery_orders())
@settings(max_examples=100, deadline=None)
def test_receiver_ooo_ranges_invariants(case):
    n, order = case
    receiver = make_receiver()
    for idx in order:
        receiver.on_segment(Segment([Packet(FLOW, idx * MSS, MSS)]))
        ranges = receiver._ooo
        for (s1, e1), (s2, e2) in zip(ranges, ranges[1:]):
            assert s1 < e1 <= s2 < e2  # sorted, disjoint
        for s, e in ranges:
            assert s > receiver.rcv_nxt  # strictly beyond the watermark


@given(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 8)),
                min_size=1, max_size=30))
@settings(max_examples=150, deadline=None)
def test_sack_scoreboard_sorted_disjoint(blocks):
    sender = TcpSender(Engine(), NullHost(), FLOW, TcpConfig())
    sender.snd_una = 0
    for start, length in blocks:
        sender._merge_sack([(start * MSS, (start + length) * MSS)])
        board = sender.sacked
        for (s1, e1), (s2, e2) in zip(board, board[1:]):
            assert s1 < e1 < s2 < e2
    total = sender._sacked_bytes()
    covered = set()
    for start, length in blocks:
        covered.update(range(start, start + length))
    assert total == len(covered) * MSS


@given(st.lists(st.integers(1, 50), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_sack_prune_on_cumulative_ack(acks):
    sender = TcpSender(Engine(), NullHost(), FLOW, TcpConfig())
    sender._merge_sack([(10 * MSS, 20 * MSS)])
    high = 0
    for a in acks:
        high = max(high, a)
        sender.snd_una = max(sender.snd_una, a * MSS)
        sender.sacked = [(s, e) for s, e in sender.sacked
                         if e > sender.snd_una]
        for s, e in sender.sacked:
            assert e > sender.snd_una
