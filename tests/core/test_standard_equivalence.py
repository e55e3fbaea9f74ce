"""``StandardGRO`` and ``ChainedGRO`` against §3.1's rule, through
``tests/differential.py``: each engine is built under JSAN, whose shadow
runs :class:`repro.analysis.spec.GroSpec` beside it and compares the
deliveries with their reasons and the counters (packets, passthroughs,
merges, polls, flush reasons) after every poll, completion, hrtimer sweep
and ``flush_all``."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.chained_gro import ChainedGRO
from repro.core.flush import FlushReason
from repro.core.standard_gro import StandardGRO
from repro.net.addr import FiveTuple
from repro.net.constants import MAX_GRO_SEGMENT, MSS
from repro.net.packet import Packet

from ..differential import PSH, against_spec, spiced_polls


def standard(cap=MAX_GRO_SEGMENT):
    return lambda deliver: StandardGRO(deliver, cap)


#: Caps on a merged segment: the kernel's 64 KB (not a multiple of MSS), a
#: few MSS exactly, and a few MSS plus change.
CAPS = (MAX_GRO_SEGMENT, 3 * MSS, 5 * MSS + 700, 44 * MSS + 100)


@given(seed=st.integers(0, 1 << 16), flows=st.integers(1, 12),
       pkts=st.integers(1, 60), window=st.integers(1, 12),
       spice=st.sampled_from((0.0, 0.05, 0.2, 0.5)),
       cap=st.sampled_from(CAPS), linked=st.booleans(), traced=st.booleans())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_engine_equals_the_spec(seed, flows, pkts, window, spice, cap, linked,
                                traced):
    against_spec(ChainedGRO if linked else standard(cap),
                 spiced_polls(seed, flows, pkts, window, spice), traced)


def test_mix_reaches_every_branch():
    """The generator is not vacuous: one mid-sized draw fires every flush
    reason standard GRO has, merges, polls, and passes ACKs through."""
    stats = against_spec(standard(5 * MSS + 700),
                         spiced_polls(13, 6, 50, 1, 0.2), traced=True).gro.stats
    assert set(stats.flush_reasons) == {
        FlushReason.FLAGS, FlushReason.SEGMENT_FULL, FlushReason.UNMERGEABLE,
        FlushReason.OUT_OF_SEQUENCE, FlushReason.POLL_END,
        FlushReason.SHUTDOWN}
    assert stats.merges and stats.polls and stats.passthrough_packets


def test_chained_mix_reaches_every_branch():
    """One flow in polls of up to 64 packets fills a 64 KB chain."""
    stats = against_spec(ChainedGRO, spiced_polls(3, 1, 300, 8, 0.05)).gro.stats
    assert set(stats.flush_reasons) == {
        FlushReason.FLAGS, FlushReason.SEGMENT_FULL, FlushReason.POLL_END,
        FlushReason.SHUTDOWN}
    assert stats.merges and stats.polls and stats.passthrough_packets


def test_psh_opening_a_run_is_never_held():
    """Trap: a PSH packet that *opens* a run is delivered at once as
    ``FLAGS``; the one that closes a run flushes it and clears the hold."""
    flow = FiveTuple(1, 2, 1000, 80)
    polls = [(0, [Packet(flow, 0, MSS, flags=PSH),
                  Packet(flow, MSS, MSS), Packet(flow, 2 * MSS, MSS, flags=PSH),
                  Packet(flow, 3 * MSS, MSS)], False, None)]
    for make in (standard(), ChainedGRO):
        assert [row[:4] for row in against_spec(make, polls).delivered] == [
            (FlushReason.FLAGS, 0, MSS, 1),
            (FlushReason.FLAGS, MSS, 3 * MSS, 2),
            (FlushReason.SHUTDOWN, 3 * MSS, 4 * MSS, 1)]
