"""The flat per-packet path against the helper chain it replaced.

``test_receive_path_spec.py`` runs one body twice (poll of 1 vs poll of 32);
this file runs two bodies once: ``JugglerGRO`` and, from
``reference_juggler.py``, the parent's ``receive_batch`` / ``_event_checks``
/ ``_after_flush_transitions`` / ``OfoQueue.insert`` / ``_deliver_segment``.
Both are handed the same ``Packet`` objects (GRO never writes to a packet)
and must agree after every poll on every ``GroStats`` field, the flow table
in eviction order, every delivered segment and, when traced, every event.
Everything runs under JSAN.
"""

import dataclasses
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis.runtime import sanitizing
from repro.core.config import JugglerConfig
from repro.core.flush import FlushReason
from repro.core.juggler import JugglerGRO
from repro.core.stats import GroStats
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.flags import TcpFlags
from repro.net.packet import Packet
from repro.perf.workloads import reordered_stream
from repro.sim.time import US
from repro.trace.sinks import CallbackSink
from repro.trace.tracer import Tracer

from .reference_juggler import ReferenceJugglerGRO

PSH = TcpFlags.ACK | TcpFlags.PSH


@pytest.fixture(autouse=True)
def _sanitized():
    with sanitizing():
        yield


class Rig:
    """One engine with its deliveries (reason included) and events logged."""

    def __init__(self, engine_class, config, traced):
        self.delivered = []
        self.events = []
        self.gro = engine_class(lambda segment: None, config)
        if traced:
            self.gro.attach_tracer(Tracer([CallbackSink(self.events.append)]))
        deliver = self.gro._deliver_segment

        def logged(segment, reason, now):
            self.delivered.append(
                (reason, segment.seq, segment.end_seq, segment.mtus,
                 segment._payload, segment._closed, segment.first_sent_at,
                 now, [p.pid for p in segment.packets]))
            deliver(segment, reason, now)

        self.gro._deliver_segment = logged

    def table(self):
        """Entries in the order eviction would walk them, list by list."""
        table = self.gro.table
        return [
            (name, str(e.key), e.phase, e.seq_next, e.lost_seq, e.hole_since,
             e.flush_timestamp, e.last_seen,
             [(n.seq, n.end_seq, n.mtus, n._payload, n._closed,
               n.first_sent_at, [p.pid for p in n.packets])
              for n in e.ofo.nodes])
            for name, bucket in table._lists.items()
            for e in bucket.values()
        ] + [str(key) for key in table._flows]

    def trace(self):
        return [(type(e).__name__, str(dataclasses.asdict(e)))
                for e in self.events]


def assert_same(new: Rig, old: Rig, when):
    for field in dataclasses.fields(GroStats):
        assert (getattr(new.gro.stats, field.name)
                == getattr(old.gro.stats, field.name)), (field.name, when)
    assert new.table() == old.table(), when
    assert new.delivered == old.delivered, when
    assert new.gro.next_deadline() == old.gro.next_deadline(), when
    assert new.trace() == old.trace(), when


def run_both(polls, config, traced=False):
    """``polls``: (now, packets, timer_at) — a poll, its completion, and one
    hrtimer sweep at ``timer_at`` before the next."""
    new = Rig(JugglerGRO, config, traced)
    old = Rig(ReferenceJugglerGRO, config, traced)
    for index, (now, packets, timer_at) in enumerate(polls):
        for rig in (new, old):
            rig.gro.receive_batch(packets, now)
            rig.gro.poll_complete(now)
        assert_same(new, old, ("poll", index))
        for rig in (new, old):
            rig.gro.check_timeouts(timer_at)
        assert_same(new, old, ("timer", index))
    for rig in (new, old):
        rig.gro.flush_all(polls[-1][2] + 1)
    assert_same(new, old, "flush_all")
    return new


def spiced_polls(seed, flows, pkts, window, spice):
    """``reordered_stream`` cut into polls, with every shape the pipeline
    branches on mixed in at rate ``spice``: duplicates, retransmissions of
    flushed bytes (whole and straddling ``seq_next``), PSH, CE marks, option
    changes, pure ACKs; gaps between polls span both timeouts."""
    rng = random.Random(seed)
    stream = []
    sent = {}
    for i, base in enumerate(reordered_stream(flows, pkts, window=window,
                                              seed=seed)):
        flags = PSH if rng.random() < spice / 2 else TcpFlags.ACK
        options = (("ts", i),) if rng.random() < spice / 2 else ()
        packet = Packet(base.flow, base.seq, MSS, flags=flags,
                        options=options, sent_at=rng.randrange(1000))
        if rng.random() < spice / 2:
            packet.mark_ce()
        stream.append(packet)
        history = sent.setdefault(base.flow, [])
        history.append(base.seq)
        roll = rng.random()
        if roll < spice:
            # The same bytes again: a duplicate while buffered, a
            # retransmission once flushed.
            stream.append(Packet(base.flow, rng.choice(history), MSS))
        elif roll < 2 * spice:
            # Half old, half new once its first half is flushed.
            stream.append(Packet(base.flow,
                                 rng.choice(history) + MSS // 2, MSS))
        elif roll < 2.5 * spice:
            stream.append(Packet(base.flow, base.seq, 0))
    polls, now, at = [], 0, 0
    while at < len(stream):
        size = rng.choice((1, 3, 8, 32))
        now += rng.choice((100, 2 * US, 20 * US, 60 * US))
        polls.append((now, stream[at:at + size],
                      now + rng.choice((0, 16 * US, 51 * US))))
        at += size
    return polls


@given(seed=st.integers(0, 1 << 16), flows=st.integers(1, 10),
       pkts=st.integers(4, 24), window=st.integers(1, 12),
       spice=st.sampled_from((0.0, 0.05, 0.2)),
       capacity=st.sampled_from((2, 4, 64)),
       segment_mss=st.sampled_from((3, 8, 44)),
       buildup=st.booleans(), traced=st.booleans())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_flat_path_equals_the_helper_chain(seed, flows, pkts, window, spice,
                                           capacity, segment_mss, buildup,
                                           traced):
    config = JugglerConfig(table_capacity=capacity, enable_buildup=buildup,
                           max_segment_bytes=segment_mss * MSS + 100)
    run_both(spiced_polls(seed, flows, pkts, window, spice), config, traced)


def test_mix_reaches_every_branch():
    """The generator above is not vacuous: one mid-sized draw fires every
    flush reason, evicts, finds duplicates and scans for stragglers."""
    config = JugglerConfig(table_capacity=4, max_segment_bytes=8 * MSS + 100)
    stats = run_both(spiced_polls(5, 12, 40, 6, 0.2), config).gro.stats
    standard_only = {FlushReason.POLL_END, FlushReason.OUT_OF_SEQUENCE,
                     FlushReason.PASSTHROUGH}
    assert set(stats.flush_reasons) == set(FlushReason) - standard_only
    assert stats.total_evictions and stats.duplicates and stats.merges
    assert stats.nodes_scanned and stats.ooo_segments


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
        (0, [data(0, PSH)], 0),                  # flushed: seq_next = 1 MSS
        (t0, [data(2), data(3), data(5)], t0),   # hole at 1 since t0
        (t1, [data(1)], t1),                     # fills it: [1, 4) is full
    ]
    new = run_both(polls, config)
    # run_both drained the engines; replay to look at the state in between.
    gro = JugglerGRO(lambda segment: None, config)
    for now, packets, _ in polls:
        gro.receive_batch(packets, now)
    entry = gro.table.lookup(FLOW)
    assert entry.seq_next == 4 * MSS
    assert [(n.seq, n.end_seq) for n in entry.ofo.nodes] == \
        [(5 * MSS, 6 * MSS)]
    assert entry.hole_since == t1
    assert FlushReason.SEGMENT_FULL in new.gro.stats.flush_reasons
