"""``StandardGRO``'s one batch body against the helper chain it replaced.

``reference_standard_gro.py`` holds the parent's ``receive`` (``can_append``
/ ``append`` / ``closed`` / ``payload_len`` / ``_flush``) under the
base-class loop.  Both engines are handed the same ``Packet`` objects (GRO
never writes to a packet), cut into polls of random size, and must agree
after every poll on every ``GroStats`` field, every delivered segment with
its flush reason, the held ``_batch``, every charge made to the CPU model
and, when traced, every event.  Everything runs under JSAN.
"""

import dataclasses
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis.runtime import sanitizing
from repro.core.flush import FlushReason
from repro.core.standard_gro import StandardGRO
from repro.core.stats import GroStats
from repro.cpu.accounting import GroCpuAccountant
from repro.cpu.meter import CoreMeter
from repro.net.addr import FiveTuple
from repro.net.constants import MAX_GRO_SEGMENT, MSS
from repro.net.flags import TcpFlags
from repro.net.packet import Packet
from repro.trace.sinks import CallbackSink
from repro.trace.tracer import Tracer

from .reference_standard_gro import ReferenceStandardGRO

PSH = TcpFlags.ACK | TcpFlags.PSH
FIN = TcpFlags.ACK | TcpFlags.FIN


@pytest.fixture(autouse=True)
def _sanitized():
    with sanitizing():
        yield


class RecordingMeter(CoreMeter):
    """A core meter that keeps every charge, in order."""

    def __init__(self):
        super().__init__()
        self.charges = []

    def charge(self, ns):
        self.charges.append(ns)
        super().charge(ns)


class Rig:
    """One engine with its deliveries (reason included), its CPU charges and
    its events logged."""

    def __init__(self, engine_class, max_bytes, accounted, traced):
        self.delivered = []
        self.events = []
        self.meter = RecordingMeter()
        accountant = GroCpuAccountant(self.meter) if accounted else None
        self.gro = engine_class(self._deliver, accountant, max_bytes)
        if traced:
            self.gro.attach_tracer(Tracer([CallbackSink(self.events.append)]))
        self._reason = FlushReason.PASSTHROUGH
        deliver_segment = self.gro._deliver_segment

        def reasoned(segment, reason, now):
            self._reason = reason
            deliver_segment(segment, reason, now)
            self._reason = FlushReason.PASSTHROUGH

        self.gro._deliver_segment = reasoned

    def _deliver(self, segment):
        self.delivered.append(
            (self._reason, segment.seq, segment.end_seq, segment.mtus,
             segment._payload, segment._closed, segment.first_sent_at,
             segment.flushed_at, [p.pid for p in segment.packets]))

    def held(self):
        return [(str(flow), s.seq, s.end_seq, s.mtus, s._closed)
                for flow, s in self.gro._batch.items()]

    def trace(self):
        return [(type(e).__name__, str(dataclasses.asdict(e)))
                for e in self.events]


def assert_same(new: Rig, old: Rig, when):
    for field in dataclasses.fields(GroStats):
        assert (getattr(new.gro.stats, field.name)
                == getattr(old.gro.stats, field.name)), (field.name, when)
    assert new.delivered == old.delivered, when
    assert new.held() == old.held(), when
    assert new.meter.charges == old.meter.charges, when
    assert new.trace() == old.trace(), when


def run_both(polls, max_bytes, accounted=False, traced=False):
    """``polls``: (now, packets, complete) — one ``receive_batch`` call, then
    ``poll_complete`` if ``complete`` (a NAPI poll may take several)."""
    new = Rig(StandardGRO, max_bytes, accounted, traced)
    old = Rig(ReferenceStandardGRO, max_bytes, accounted, traced)
    for index, (now, packets, complete) in enumerate(polls):
        for rig in (new, old):
            rig.gro.receive_batch(packets, now)
        assert_same(new, old, ("poll", index))
        if complete:
            for rig in (new, old):
                rig.gro.poll_complete(now)
            assert_same(new, old, ("complete", index))
    for rig in (new, old):
        rig.gro.flush_all(polls[-1][0] + 1)
    assert_same(new, old, "flush_all")
    return new


def mixed_polls(seed, flows, pkts, spice):
    """``flows`` in-order streams, interleaved in runs, with every shape the
    body branches on mixed in at rate ``spice``: adjacent swaps, duplicates,
    runts, PSH and FIN (mid-run and opening one), CE marks, option changes
    and pure ACKs."""
    rng = random.Random(seed)
    streams = []
    for f in range(flows):
        flow = FiveTuple(1, 2, 1000 + f, 80)
        seq, sent, stream = 0, [], []
        for i in range(pkts):
            payload = MSS if rng.random() >= spice else rng.randrange(1, MSS)
            roll = rng.random()
            flags = (PSH if roll < spice / 2 else FIN if roll < spice
                     else TcpFlags.ACK)
            options = (("ts", i),) if rng.random() < spice / 2 else ()
            packet = Packet(flow, seq, payload, flags=flags, options=options,
                            sent_at=rng.randrange(1000))
            if rng.random() < spice / 2:
                packet.mark_ce()
            stream.append(packet)
            sent.append(seq)
            seq += payload
            roll = rng.random()
            if roll < spice / 2:
                stream.append(Packet(flow, rng.choice(sent), MSS))
            elif roll < spice:
                stream.append(Packet(flow, seq, 0))
        streams.append(stream)
    arrivals = []
    while any(streams):
        stream = rng.choice([s for s in streams if s])
        run = rng.randint(1, 8)
        arrivals.extend(stream[:run])
        del stream[:run]
    for i in range(len(arrivals) - 1):
        if rng.random() < spice:
            arrivals[i], arrivals[i + 1] = arrivals[i + 1], arrivals[i]
    polls, now, at = [], 0, 0
    while at < len(arrivals):
        size = rng.choice((1, 2, 5, 16, 64))
        now += rng.choice((100, 2_000, 20_000))
        polls.append((now, arrivals[at:at + size], rng.random() < 0.7))
        at += size
    return polls


#: Caps on a merged segment: the kernel's 64 KB (not a multiple of MSS), a
#: few MSS exactly, and a few MSS plus change.
CAPS = (MAX_GRO_SEGMENT, 3 * MSS, 5 * MSS + 700, 44 * MSS + 100)


@given(seed=st.integers(0, 1 << 16), flows=st.integers(1, 12),
       pkts=st.integers(1, 60),
       spice=st.sampled_from((0.0, 0.05, 0.2, 0.5)),
       max_bytes=st.sampled_from(CAPS),
       accounted=st.booleans(), traced=st.booleans())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_one_body_equals_the_helper_chain(seed, flows, pkts, spice,
                                          max_bytes, accounted, traced):
    run_both(mixed_polls(seed, flows, pkts, spice), max_bytes, accounted,
             traced)


def test_mix_reaches_every_branch():
    """The generator above is not vacuous: one mid-sized draw fires every
    flush reason standard GRO has, merges, and passes ACKs through — with
    the CPU model charged for all of it."""
    stats = run_both(mixed_polls(6, 6, 50, 0.2), 5 * MSS + 700,
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
                  Packet(flow, 3 * MSS, MSS)], False)]
    new = run_both(polls, MAX_GRO_SEGMENT)
    assert [row[:4] for row in new.delivered] == [
        (FlushReason.FLAGS, 0, MSS, 1),
        (FlushReason.FLAGS, MSS, 3 * MSS, 2),
        (FlushReason.SHUTDOWN, 3 * MSS, 4 * MSS, 1)]
