"""``QueuedLink`` against the link's closed form (``link_spec``)."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.fabric.link import QueuedLink
from repro.net.constants import MSS
from repro.net.packet import Packet

from ..differential import LINK_FLOW, assert_link_equals_spec

WIRE = Packet(LINK_FLOW, 0, MSS).wire_len
#: (gap ns, priority, payload) arrivals: gaps (0 lands two packets in one
#: ns) straddle a full frame's 1,231 ns; payloads are ACKs, runts, frames.
arrivals = st.lists(st.tuples(st.one_of(st.just(0), st.integers(1, 3000)), st.integers(0, 2),
                              st.one_of(st.just(0), st.just(MSS), st.integers(1, MSS))),
                    min_size=1, max_size=60)
limits = st.one_of(st.none(), st.integers(0, 6 * WIRE))
#: (at ns, for ns, capacity while clamped): a ``queue_saturation`` window.
clamps = st.one_of(st.none(), st.tuples(
    st.integers(0, 40_000), st.integers(1, 40_000), st.integers(0, 3 * WIRE)))


@given(arrivals, st.integers(1, 3), limits, limits, st.sampled_from([0, 500]), clamps)
@settings(max_examples=400, deadline=None)
def test_link_equals_the_spec(schedule, levels, cap, ecn, prop, clamp):
    assert_link_equals_spec(QueuedLink, schedule, levels, cap, ecn, prop, clamp)


def test_burst_into_an_idle_link_event_for_event():
    # A TSO burst on an idle link: the first packet skips the queue, level 0
    # goes next; completion is posted at transmit start, then the arrival.
    schedule = [(0, 1, MSS)] * 4 + [(0, 0, 0)]
    delivered, stats, log = assert_link_equals_spec(
        QueuedLink, schedule, 2, None, None, 500, None)
    assert [seq for seq, _, _ in delivered] == [0, 4, 1, 2, 3]
    assert stats[4] == 3 * WIRE + Packet(LINK_FLOW, 0, 0).wire_len  # max queue
    names = [name for _, _, name in log[len(schedule):]]
    assert names == ["_tx_done"] + ["receive", "_tx_done"] * 4 + ["receive"]
