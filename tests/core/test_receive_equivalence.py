"""``JugglerGRO`` against the spec, through ``tests/differential.py``: each
engine is built under JSAN, whose shadow runs :mod:`repro.analysis.spec`
(Tables 1-2 and §4.3, written from the paper) beside it and compares
deliveries, phase transitions, flow state, lists, deadlines and counters
after every poll, completion, hrtimer sweep and ``flush_all``.  What the
spec cannot see — ``nodes_scanned``, ``polls``, trace events — is pinned
by ``test_receive_budget.py``, ``test_receive_path_spec.py``, the golden
rows and the e2e digests."""

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

from ..differential import PSH, against_spec, feed, spiced_polls


def juggler(config):
    return lambda deliver: JugglerGRO(deliver, config)


@given(seed=st.integers(0, 1 << 16), flows=st.integers(1, 10),
       pkts=st.integers(4, 24), window=st.integers(1, 12),
       spice=st.sampled_from((0.0, 0.05, 0.2)),
       capacity=st.sampled_from((2, 4, 64)),
       segment_mss=st.sampled_from((3, 8, 44)),
       buildup=st.booleans(), traced=st.booleans())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_engine_equals_the_spec(seed, flows, pkts, window, spice,
                                           capacity, segment_mss, buildup,
                                           traced):
    config = JugglerConfig(table_capacity=capacity, enable_buildup=buildup,
                           max_segment_bytes=segment_mss * MSS + 100)
    against_spec(juggler(config), spiced_polls(seed, flows, pkts, window, spice),
                 traced)


def test_mix_reaches_every_branch():
    """The generator is not vacuous: one mid-sized draw fires every flush
    reason, evicts, finds duplicates and scans for stragglers."""
    config = JugglerConfig(table_capacity=4, max_segment_bytes=8 * MSS + 100)
    stats = against_spec(juggler(config), spiced_polls(2, 12, 40, 6, 0.2)).gro.stats
    standard_only = {FlushReason.POLL_END, FlushReason.OUT_OF_SEQUENCE,
                     FlushReason.PASSTHROUGH}
    assert set(stats.flush_reasons) == set(FlushReason) - standard_only
    assert stats.total_evictions and stats.duplicates and stats.merges
    assert stats.nodes_scanned and stats.ooo_segments
    assert stats.passthrough_packets


FLOW = FiveTuple(1, 2, 1000, 80)


def data(k, flags=TcpFlags.ACK):
    return Packet(FLOW, k * MSS, MSS, flags=flags)


def test_hole_clock_restarts_after_a_fill_and_flush():
    """Trap: the per-packet path refreshes the hole clock after the insert
    and again after the event checks, and the two do not collapse.  The
    packet that fills the hole clears ``hole_since``; the head then flushes
    as SEGMENT_FULL and leaves a detached run, whose clock starts at *this*
    poll's ``now`` — not at the time of the hole the packet just filled."""
    config = JugglerConfig(enable_buildup=False, max_segment_bytes=3 * MSS)
    t0, t1 = 1 * US, 9 * US
    polls = [
        (0, [data(0, PSH)], True, 0),                  # seq_next = 1 MSS
        (t0, [data(2), data(3), data(5)], True, t0),   # hole at 1 since t0
        (t1, [data(1)], True, t1),                     # fills: [1, 4) full
    ]
    new = against_spec(juggler(config), polls)
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

