"""The flat per-packet path against the helper chain it replaced, through
``tests/differential.py``: ``JugglerGRO`` against ``reference_juggler.py``'s
``receive_batch`` / ``_event_checks`` / ``_after_flush_transitions`` /
``OfoQueue.insert`` / ``_deliver_segment``."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.config import JugglerConfig
from repro.core.flush import FlushReason
from repro.core.juggler import JugglerGRO
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.flags import TcpFlags
from repro.net.packet import Packet
from repro.sim.time import US

from ..differential import PSH, assert_equivalent, feed, spiced_polls
from .reference_juggler import ReferenceJugglerGRO


def run_both(polls, config, **kw):
    return assert_equivalent(
        lambda deliver, cpu: JugglerGRO(deliver, config, cpu),
        lambda deliver, cpu: ReferenceJugglerGRO(deliver, config, cpu),
        polls, **kw)


@given(seed=st.integers(0, 1 << 16), flows=st.integers(1, 10),
       pkts=st.integers(4, 24), window=st.integers(1, 12),
       spice=st.sampled_from((0.0, 0.05, 0.2)),
       capacity=st.sampled_from((2, 4, 64)),
       segment_mss=st.sampled_from((3, 8, 44)),
       buildup=st.booleans(), accounted=st.booleans(), traced=st.booleans())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_flat_path_equals_the_helper_chain(seed, flows, pkts, window, spice,
                                           capacity, segment_mss, buildup,
                                           accounted, traced):
    config = JugglerConfig(table_capacity=capacity, enable_buildup=buildup,
                           max_segment_bytes=segment_mss * MSS + 100)
    run_both(spiced_polls(seed, flows, pkts, window, spice), config,
             accounted=accounted, traced=traced)


def test_mix_reaches_every_branch():
    """The generator is not vacuous: one mid-sized draw fires every flush
    reason, evicts, finds duplicates and scans for stragglers."""
    config = JugglerConfig(table_capacity=4, max_segment_bytes=8 * MSS + 100)
    stats = run_both(spiced_polls(2, 12, 40, 6, 0.2), config).gro.stats
    standard_only = {FlushReason.POLL_END, FlushReason.OUT_OF_SEQUENCE,
                     FlushReason.PASSTHROUGH}
    assert set(stats.flush_reasons) == set(FlushReason) - standard_only
    assert stats.total_evictions and stats.duplicates and stats.merges
    assert stats.nodes_scanned and stats.ooo_segments
    assert stats.passthrough_packets


FLOW = FiveTuple(1, 2, 1000, 80)


def test_hole_clock_restarts_after_a_fill_and_flush():
    """Trap: the per-packet path refreshes the hole clock after the insert
    and again after the event checks, and the two do not collapse.  The
    packet that fills the hole clears ``hole_since``; the head then flushes
    as SEGMENT_FULL and leaves a detached run, whose clock starts at *this*
    poll's ``now`` — not at the time of the hole the packet just filled."""
    config = JugglerConfig(enable_buildup=False, max_segment_bytes=3 * MSS)

    def data(k, flags=TcpFlags.ACK):
        return Packet(FLOW, k * MSS, MSS, flags=flags)

    t0, t1 = 1 * US, 9 * US
    polls = [
        (0, [data(0, PSH)], True, 0),                  # seq_next = 1 MSS
        (t0, [data(2), data(3), data(5)], True, t0),   # hole at 1 since t0
        (t1, [data(1)], True, t1),                     # fills: [1, 4) full
    ]
    new = run_both(polls, config)
    # The harness drained the engines; replay to look at the state between.
    gro = JugglerGRO(lambda segment: None, config)
    for now, packets, _, _ in polls:
        feed(gro, packets, now, "receive_batch")
    entry = gro.table.lookup(FLOW)
    assert entry.seq_next == 4 * MSS
    assert [(n.seq, n.end_seq) for n in entry.ofo.nodes] == \
        [(5 * MSS, 6 * MSS)]
    assert entry.hole_since == t1
    assert FlushReason.SEGMENT_FULL in new.gro.stats.flush_reasons
