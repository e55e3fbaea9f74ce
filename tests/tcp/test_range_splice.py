"""The in-place range splice against the list rebuilds it replaced.

``TcpReceiver._add_ooo`` and ``TcpSender._merge_sack`` used to rebuild their
whole range list per call; both now go through ``repro.net.ranges.
merge_range`` (bisect + one slice assignment), which returns the bytes it
newly covered, and the sender keeps its SACKed-byte total as a running sum:
blocks add to it, cumulative ACKs subtract the ranges they pass.  The rebuild
bodies are kept here, verbatim, as the reference.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet
from repro.net.segment import Segment
from repro.net.ranges import merge_range
from repro.sim.engine import Engine
from repro.tcp.config import TcpConfig
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender

FLOW = FiveTuple(0, 1, 1000, 80)


def reference_add_ooo(ooo, start, end):
    """``TcpReceiver._add_ooo`` as it was: one new list per call."""
    merged = []
    placed = False
    for s, e in ooo:
        if e < start or s > end:
            if not placed and s > end:
                merged.append((start, end))
                placed = True
            merged.append((s, e))
        else:
            start = min(start, s)
            end = max(end, e)
    if not placed:
        merged.append((start, end))
    return merged


def reference_merge_sack(sacked, snd_una, start, end):
    """``TcpSender._merge_sack`` as it was (early-outs included)."""
    if end <= snd_una or end <= start:
        return sacked
    start = max(start, snd_una)
    for s, e in sacked:
        if s > start:
            break
        if e >= end:
            return sacked
    return reference_add_ooo(sacked, start, end)


class NullHost:
    host_id = 1
    app_core = None

    def register_handler(self, flow, handler):
        pass

    def unregister_handler(self, flow):
        pass

    def transmit(self, packet):
        pass


def covered(ranges):
    return sum(e - s for s, e in ranges)


#: (start, length) in small units so that overlapping, nested, touching
#: (``e == start`` / ``s == end``) and repeated ranges are all common.
ranges_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=60),
              st.integers(min_value=1, max_value=12)),
    min_size=1, max_size=40)


@given(ranges_strategy)
@settings(max_examples=500, deadline=None)
def test_merge_range_equals_the_list_rebuild(ranges):
    spliced, rebuilt = [], []
    for start, length in ranges:
        held = covered(rebuilt)
        added = merge_range(spliced, start, start + length)
        rebuilt = reference_add_ooo(rebuilt, start, start + length)
        assert spliced == rebuilt
        assert added == covered(rebuilt) - held


def test_touching_ranges_merge_on_both_sides():
    ranges = [(0, 10), (20, 30)]
    assert merge_range(ranges, 10, 20) == 10
    assert ranges == [(0, 30)]
    assert merge_range(ranges, 5, 30) == 0
    assert merge_range(ranges, 30, 31) == 1
    assert ranges == [(0, 31)]


@given(st.lists(st.one_of(
    st.tuples(st.just("sack"), st.integers(0, 60), st.integers(-2, 12)),
    st.tuples(st.just("ack"), st.integers(0, 70), st.just(0)),
    # A cumulative ACK placed relative to a held range: on its start, inside
    # it, on its end.
    st.tuples(st.just("ack_at_range"), st.integers(0, 7),
              st.sampled_from(("start", "inside", "end")))),
    min_size=1, max_size=50))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_sender_scoreboard_and_cached_total_equal_the_reference(steps):
    sender = TcpSender(Engine(), NullHost(), FLOW,
                       TcpConfig(init_cwnd=128 * MSS))
    sender.send(100 * MSS)
    sacked = []
    for kind, at, where in steps:
        if kind == "sack":
            block = (at * MSS, (at + where) * MSS)
            sender._merge_sack([block])
            sacked = reference_merge_sack(sacked, sender.snd_una, *block)
        else:
            ack = at * MSS
            if kind == "ack_at_range" and sacked:
                s, e = sacked[at % len(sacked)]
                ack = {"start": s, "inside": (s + e) // 2, "end": e}[where]
            if sender.snd_una < ack <= sender.high_sent:
                sender._on_new_ack(ack)
                sacked = [(s, e) for s, e in sacked if e > ack]
        assert sender.sacked == sacked
        assert sender._sacked_bytes() == covered(sender.sacked)


@given(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 4)),
                min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_receiver_ooo_queue_equals_the_reference(segments):
    receiver = TcpReceiver(Engine(), NullHost(), FLOW, TcpConfig())
    rcv_nxt, ooo = 0, []
    for at, length in segments:
        start, end = at * MSS, (at + length) * MSS
        receiver.on_segment(Segment(
            [Packet(FLOW, start + i * MSS, MSS) for i in range(length)]))
        # The receiver's _absorb_range, with the old _add_ooo under it.
        if end > rcv_nxt:
            if start > rcv_nxt:
                ooo = reference_add_ooo(ooo, start, end)
            else:
                rcv_nxt = end
                while ooo and ooo[0][0] <= rcv_nxt:
                    rcv_nxt = max(rcv_nxt, ooo.pop(0)[1])
        assert receiver._ooo == ooo
        assert receiver.rcv_nxt == rcv_nxt
