"""The fused link hop is the three-method link, event for event.

``QueuedLink`` sends a packet that finds the link idle straight to the wire
and pulls the next packet inside ``_tx_done``; ``reference_link.py`` is the
link it replaced, where every packet went through the deque and
``_transmit_next``.  Both are driven with the same Hypothesis arrival
schedules and must agree on every delivery instant, drop, CE mark and
counter — and, through a recording engine, on the ``(time, seq, callback)``
of every event posted, which is what keeps whole universes byte-identical.
"""

from dataclasses import astuple

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.fabric.link import QueuedLink
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet
from repro.sim.engine import Engine

from .reference_link import ReferenceLink

FLOW = FiveTuple(1, 2, 1000, 80)
WIRE = Packet(FLOW, 0, MSS).wire_len


class RecordingEngine(Engine):
    """Logs ``(time, seq, callback name)`` of every event scheduled."""

    def __init__(self):
        super().__init__()
        self.log = []

    def post(self, delay, callback, *args):
        self.log.append((self.now + delay, self.events_allocated,
                         callback.__name__))
        super().post(delay, callback, *args)

    def post_at(self, time, callback, *args):
        self.log.append((time, self.events_allocated, callback.__name__))
        super().post_at(time, callback, *args)


#: Payload sizes: pure ACKs, runts, full frames.
sizes = st.one_of(st.just(0), st.just(MSS), st.integers(1, MSS))
#: One arrival: (ns since the previous one — 0 lands two packets in the same
#: nanosecond —, priority, payload).  Gaps straddle the 1,231 ns
#: serialisation time of a full frame at 10 Gb/s, so the link keeps going
#: idle and busy.
arrivals = st.lists(
    st.tuples(st.one_of(st.just(0), st.integers(1, 3000)),
              st.integers(0, 2), sizes),
    min_size=1, max_size=60)
limits = st.one_of(st.none(), st.integers(0, 6 * WIRE))
#: (at ns, for ns, capacity while clamped): a ``queue_saturation`` window.
clamps = st.one_of(st.none(), st.tuples(
    st.integers(0, 40_000), st.integers(1, 40_000), st.integers(0, 3 * WIRE)))


def drive(link_class, schedule, priorities, capacity, ecn, prop_delay_ns,
          clamp):
    engine = RecordingEngine()
    delivered = []

    class Sink:
        def receive(self, packet):
            delivered.append((packet.seq, engine.now, packet.ce))

    link = link_class(engine, 10.0, Sink(), prop_delay_ns=prop_delay_ns,
                      priorities=priorities, capacity_bytes=capacity,
                      ecn_threshold_bytes=ecn)

    def arrive(i, priority, size):
        link.enqueue(Packet(FLOW, i, size, priority=priority))

    def set_capacity(value):
        link.capacity_bytes = value

    at = 0
    for i, (gap, priority, size) in enumerate(schedule):
        at += gap
        engine.post_at(at, arrive, i, priority, size)
    if clamp is not None:
        start, length, clamped = clamp
        engine.post_at(start, set_capacity, clamped)
        engine.post_at(start + length, set_capacity, capacity)
    engine.run()
    assert link._queued_bytes == 0 and not link._busy
    return delivered, astuple(link.stats), engine.log


@given(arrivals, st.integers(1, 3), limits, limits, st.sampled_from([0, 500]),
       clamps)
@settings(max_examples=400, deadline=None)
def test_fused_link_equals_three_method_link(schedule, priorities, capacity,
                                             ecn, prop_delay_ns, clamp):
    config = (schedule, priorities, capacity, ecn, prop_delay_ns, clamp)
    delivered, stats, log = drive(QueuedLink, *config)
    ref_delivered, ref_stats, ref_log = drive(ReferenceLink, *config)
    assert delivered == ref_delivered
    assert stats == ref_stats
    assert log == ref_log


def test_burst_into_an_idle_link_event_for_event():
    # The commonest shape in a cell, spelled out: a TSO burst lands on an
    # idle access link in one instant, the first packet skips the queue.
    schedule = [(0, 1, MSS)] * 4 + [(0, 0, 0)]  # level 0 is served first
    delivered, stats, log = drive(QueuedLink, schedule, 2, None, None, 500,
                                  None)
    assert (delivered, stats, log) == drive(
        ReferenceLink, schedule, 2, None, None, 500, None)
    assert [seq for seq, _, _ in delivered] == [0, 4, 1, 2, 3]
    assert stats[4] == 3 * WIRE + Packet(FLOW, 0, 0).wire_len  # max queue
    # Per packet: completion posted at transmit start, then at each
    # completion the arrival before the next completion.
    names = [name for _, _, name in log[len(schedule):]]
    assert names == ["_tx_done"] + ["receive", "_tx_done"] * 4 + ["receive"]
