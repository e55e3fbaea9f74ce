"""Property-based invariants on the TCP sender under arbitrary ACK streams."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.flags import TcpFlags
from repro.net.packet import Packet
from repro.net.segment import Segment
from repro.sim.engine import Engine
from repro.tcp.config import DUPACK_THRESHOLD, MAX_REORDERING, TcpConfig
from repro.tcp.sender import TcpSender

FLOW = FiveTuple(0, 1, 1000, 80)


class TxCapture:
    def __init__(self):
        self.packets = []

    def register_handler(self, flow, handler):
        pass

    def unregister_handler(self, flow):
        pass

    def transmit(self, packet):
        self.packets.append(packet)


@st.composite
def ack_streams(draw):
    """Arbitrary (possibly nonsensical) sequences of incoming ACKs."""
    events = draw(st.lists(st.tuples(
        st.integers(min_value=0, max_value=120),   # ack, in MSS units
        st.booleans(),                              # include a sack block?
        st.integers(min_value=0, max_value=120),   # sack start
        st.integers(min_value=1, max_value=16),    # sack length
        st.integers(min_value=0, max_value=40),    # ce bytes, in MSS
    ), min_size=1, max_size=40))
    return events


@given(ack_streams())
@settings(max_examples=200, deadline=None)
def test_sender_sequence_invariants_hold(events):
    engine = Engine()
    host = TxCapture()
    sender = TcpSender(engine, host, FLOW, TcpConfig(init_cwnd=20 * MSS))
    sender.send(100 * MSS)
    for ack_mss, with_sack, s, length, ce in events:
        sack = ((s * MSS, (s + length) * MSS),) if with_sack else ()
        packet = Packet(FLOW.reversed(), 0, 0, flags=TcpFlags.ACK,
                        ack=ack_mss * MSS, rwnd=1 << 22, sack=sack)
        packet.ce_bytes = ce * MSS
        sender.on_ack_segment(Segment([packet]))

        # Core sequence-space invariants, whatever the peer claimed:
        assert 0 <= sender.snd_una <= sender.snd_nxt <= sender.data_target
        assert sender.cwnd >= MSS
        assert sender.ssthresh >= 2 * MSS
        # Scoreboard stays sorted, disjoint and beyond snd_una.
        for (s1, e1), (s2, e2) in zip(sender.sacked, sender.sacked[1:]):
            assert s1 < e1 < s2 < e2
        for s1, e1 in sender.sacked:
            assert e1 > sender.snd_una
        assert 0.0 <= sender.dctcp_alpha <= 1.0
        assert (DUPACK_THRESHOLD <= sender.reordering_threshold
                <= MAX_REORDERING)

    # Transmitted data never exceeds what the application provided.
    for packet in host.packets:
        assert packet.end_seq <= sender.data_target


@given(st.lists(st.integers(min_value=1, max_value=30), min_size=1,
                max_size=10))
@settings(max_examples=50, deadline=None)
def test_sender_done_exactly_when_all_acked(message_sizes_mss):
    engine = Engine()
    sender = TcpSender(engine, TxCapture(), FLOW,
                       TcpConfig(init_cwnd=1 << 20))
    total = 0
    for size in message_sizes_mss:
        sender.send(size * MSS)
        total += size * MSS
    assert not sender.done
    ack = Packet(FLOW.reversed(), 0, 0, flags=TcpFlags.ACK, ack=total,
                 rwnd=1 << 22)
    sender.on_ack_segment(Segment([ack]))
    assert sender.done
    assert sender.flight_size == 0
