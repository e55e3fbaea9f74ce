"""Property tests for the sender's SACK scoreboard (_merge_sack).

The scoreboard is the mechanism half of loss recovery: every policy's
retransmission decisions read it, so its invariants — disjoint sorted
blocks, order-independent union semantics, sacked bytes bounded by the
flight — must hold for *any* block stream the peer could emit.  Run under
``JUGGLER_SANITIZE=1`` in CI so the stack's invariant sanitizer checks
ride along.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.sim.engine import Engine
from repro.tcp.config import TcpConfig
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


def make_sender(sent_mss=64):
    engine = Engine()
    sender = TcpSender(engine, TxCapture(), FLOW,
                       TcpConfig(init_cwnd=sent_mss * MSS))
    sender.send(sent_mss * MSS)
    return sender


#: SACK blocks in MSS units, possibly overlapping/duplicated/adjacent.
blocks_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=63),
              st.integers(min_value=1, max_value=16)),
    min_size=0, max_size=24,
)


def merged(sender, blocks):
    for start_mss, len_mss in blocks:
        start = start_mss * MSS
        end = min((start_mss + len_mss) * MSS, sender.snd_nxt)
        sender._merge_sack([(start, end)])
    return sender.sacked


@given(blocks_strategy)
@settings(max_examples=300, deadline=None)
def test_scoreboard_stays_disjoint_and_sorted(blocks):
    sender = make_sender()
    scoreboard = merged(sender, blocks)
    for start, end in scoreboard:
        assert start < end
    for (s1, e1), (s2, e2) in zip(scoreboard, scoreboard[1:]):
        assert e1 < s2  # strictly disjoint, sorted, not even adjacent-merged
    assert all(s >= sender.snd_una for s, _ in scoreboard)


@given(blocks_strategy, st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_merge_order_does_not_matter(blocks, rng):
    a = make_sender()
    merged(a, blocks)
    shuffled = list(blocks)
    rng.shuffle(shuffled)
    b = make_sender()
    merged(b, shuffled)
    assert a.sacked == b.sacked


@given(blocks_strategy)
@settings(max_examples=300, deadline=None)
def test_scoreboard_equals_interval_union(blocks):
    """The scoreboard is exactly the union of the in-window blocks."""
    sender = make_sender()
    merged(sender, blocks)
    covered = set()
    for start_mss, len_mss in blocks:
        start = start_mss * MSS
        end = min((start_mss + len_mss) * MSS, sender.snd_nxt)
        covered.update(range(start // MSS, max(start, end) // MSS))
    reported = set()
    for start, end in sender.sacked:
        reported.update(range(start // MSS, end // MSS))
    assert reported == covered


@given(blocks_strategy)
@settings(max_examples=300, deadline=None)
def test_sacked_bytes_never_exceed_flight(blocks):
    sender = make_sender()
    merged(sender, blocks)
    assert 0 <= sender._sacked_bytes() <= sender.flight_size
