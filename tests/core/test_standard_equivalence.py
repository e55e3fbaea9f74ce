"""``StandardGRO``'s one batch body against the helper chain it replaced
(``reference_standard_gro.py``: ``can_append`` / ``append`` / ``closed`` /
``_flush`` under the base-class loop), through ``tests/differential.py``."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.flush import FlushReason
from repro.core.standard_gro import StandardGRO
from repro.net.addr import FiveTuple
from repro.net.constants import MAX_GRO_SEGMENT, MSS
from repro.net.packet import Packet

from ..differential import PSH, assert_equivalent, spiced_polls
from .reference_standard_gro import ReferenceStandardGRO


def run_both(polls, max_bytes, **kw):
    return assert_equivalent(
        lambda deliver, cpu: StandardGRO(deliver, cpu, max_bytes),
        lambda deliver, cpu: ReferenceStandardGRO(deliver, cpu, max_bytes),
        polls, **kw)


#: Caps on a merged segment: the kernel's 64 KB (not a multiple of MSS), a
#: few MSS exactly, and a few MSS plus change.
CAPS = (MAX_GRO_SEGMENT, 3 * MSS, 5 * MSS + 700, 44 * MSS + 100)


@given(seed=st.integers(0, 1 << 16), flows=st.integers(1, 12),
       pkts=st.integers(1, 60), window=st.integers(1, 12),
       spice=st.sampled_from((0.0, 0.05, 0.2, 0.5)),
       max_bytes=st.sampled_from(CAPS),
       accounted=st.booleans(), traced=st.booleans())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_one_body_equals_the_helper_chain(seed, flows, pkts, window, spice,
                                          max_bytes, accounted, traced):
    run_both(spiced_polls(seed, flows, pkts, window, spice), max_bytes,
             accounted=accounted, traced=traced)


def test_mix_reaches_every_branch():
    """The generator is not vacuous: one mid-sized draw fires every flush
    reason standard GRO has, merges, and passes ACKs through — with the CPU
    model charged for all of it."""
    stats = run_both(spiced_polls(13, 6, 50, 1, 0.2), 5 * MSS + 700,
                     accounted=True, traced=True).gro.stats
    assert set(stats.flush_reasons) == {
        FlushReason.FLAGS, FlushReason.SEGMENT_FULL, FlushReason.UNMERGEABLE,
        FlushReason.OUT_OF_SEQUENCE, FlushReason.POLL_END,
        FlushReason.SHUTDOWN}
    assert stats.merges and stats.passthrough_packets


def test_psh_opening_a_run_is_never_held():
    """Trap: a PSH packet that *opens* a run is delivered at once as
    ``FLAGS``; the one that closes a run flushes it and clears the hold."""
    flow = FiveTuple(1, 2, 1000, 80)
    polls = [(0, [Packet(flow, 0, MSS, flags=PSH),
                  Packet(flow, MSS, MSS), Packet(flow, 2 * MSS, MSS, flags=PSH),
                  Packet(flow, 3 * MSS, MSS)], False, None)]
    new = run_both(polls, MAX_GRO_SEGMENT)
    assert [row[:4] for row in new.delivered] == [
        (FlushReason.FLAGS, 0, MSS, 1),
        (FlushReason.FLAGS, MSS, 3 * MSS, 2),
        (FlushReason.SHUTDOWN, 3 * MSS, 4 * MSS, 1)]
