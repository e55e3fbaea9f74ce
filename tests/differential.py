"""One differential harness for the receive path.

Two GRO engines — two bodies (a live engine against the reference body it
replaced) or one body fed two ways (per-packet ``receive`` against
``receive_batch``) — are handed the same ``Packet`` objects (GRO never
writes to a packet) and must be the same machine after every poll, poll
completion, hrtimer sweep and the final ``flush_all``: every field of
:func:`snapshot` equal, where a field an engine lacks reads as empty.  Each
engine is built under its own JSAN sanitizer.

A new pair is one call, ``assert_equivalent(make_a, make_b, polls)``, with
``make(deliver, accountant)`` building an engine.
"""

import dataclasses
import random

from repro.analysis.runtime import sanitizing
from repro.core.flush import FlushReason
from repro.core.stats import GroStats
from repro.cpu.accounting import GroCpuAccountant
from repro.cpu.meter import CoreMeter
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.flags import TcpFlags
from repro.net.packet import Packet
from repro.sim.time import US
from repro.trace.sinks import CallbackSink
from repro.trace.tracer import Tracer

PSH = TcpFlags.ACK | TcpFlags.PSH
FIN = TcpFlags.ACK | TcpFlags.FIN


def reordered_stream(flows, pkts, *, window=8, spice=0.0, burst=16,
                     concurrency=8, seed=9):
    """``flows`` flows of ``pkts`` packets each, as one arrival order.

    Per flow, every ``window`` of packets (a short last one too) arrives
    shuffled, never in the order sent: the per-packet-spraying displacement
    the paper measures.  Flows share the queue the way TSO senders do:
    ``concurrency`` flows live at once, each landing in runs of up to
    ``burst`` packets.  At rate ``spice`` the stream also carries every
    shape the pipeline branches on: runts, PSH and FIN (mid-run and opening
    one), CE marks, option changes, duplicates, retransmits whole or
    straddling ``seq_next``, pure ACKs and adjacent swaps across flows.
    """
    rng = random.Random(seed)
    per_flow = []
    for f in range(flows):
        flow = FiveTuple(1 + f % 16, 99, 10_000 + f, 80)
        sent, seq = [], 0
        for i in range(pkts):
            size = MSS if rng.random() >= spice / 4 else rng.randrange(1, MSS)
            roll = rng.random()
            packet = Packet(
                flow, seq, size, sent_at=rng.randrange(1000),
                flags=(PSH if roll < spice / 4 else FIN if roll < spice / 2
                       else TcpFlags.ACK),
                options=(("ts", i),) if rng.random() < spice / 2 else ())
            if rng.random() < spice / 2:
                packet.mark_ce()
            sent.append(packet)
            seq += size
        arrived = []
        for start in range(0, pkts, window):
            chunk = sent[start:start + window]
            while len(chunk) > 1 and chunk == sent[start:start + window]:
                rng.shuffle(chunk)
            for packet in chunk:
                arrived.append(packet)
                roll = rng.random()
                if roll < spice:
                    # The same bytes again: a duplicate while buffered, a
                    # retransmission once flushed.
                    old = rng.choice(arrived)
                    arrived.append(Packet(flow, old.seq, old.payload_len))
                elif roll < 2 * spice:
                    # Half old, half new once its first half is flushed.
                    arrived.append(Packet(
                        flow, rng.choice(arrived).seq + MSS // 2, MSS))
                elif roll < 2.5 * spice:
                    arrived.append(Packet(flow, packet.seq, 0))
        per_flow.append(arrived)
    stream, live = [], []
    while per_flow or live:
        while per_flow and len(live) < concurrency:
            live.append(per_flow.pop(0))
        packets = rng.choice(live)
        run = rng.randint(1, burst)
        stream.extend(packets[:run])
        del packets[:run]
        if not packets:
            live.remove(packets)
    for i in range(len(stream) - 1):
        if rng.random() < spice:
            stream[i], stream[i + 1] = stream[i + 1], stream[i]
    return stream


def spiced_polls(seed, flows, pkts, window=1, spice=0.0):
    """:func:`reordered_stream` cut into NAPI polls ``(now, packets,
    complete, timer_at)``: ``complete`` says whether ``poll_complete``
    follows (a NAPI poll may take several batches); ``timer_at``, after a
    completed poll only (as ``RxQueue`` runs them), is the hrtimer sweep
    before the next one.  The gaps span both timeouts."""
    stream = reordered_stream(flows, pkts, window=window, spice=spice,
                              seed=seed)
    rng = random.Random(seed)
    polls, now, at = [], 0, 0
    while at < len(stream):
        size = rng.choice((1, 2, 3, 8, 16, 32, 64))
        now += rng.choice((100, 2 * US, 20 * US, 60 * US))
        complete = rng.random() < 0.7
        timer_at = now + rng.choice((0, 16 * US, 51 * US))
        polls.append((now, stream[at:at + size], complete,
                      timer_at if complete else None))
        at += size
    return polls


def feed(gro, packets, now, how):
    """Hand one poll down as ``receive_batch`` or packet by packet."""
    if how == "receive":
        for packet in packets:
            gro.receive(packet, now)
    else:
        gro.receive_batch(packets, now)


class RecordingMeter(CoreMeter):
    """A core meter that keeps every charge, in order."""

    def __init__(self):
        super().__init__()
        self.charges = []

    def charge(self, ns):
        self.charges.append(ns)
        super().charge(ns)


def _run(segment):
    return (segment.seq, segment.end_seq, segment.mtus, str(segment.flow),
            segment._payload, segment._closed, segment.first_sent_at,
            [p.pid for p in segment.packets])


class Side:
    """One engine fed ``how``, with its deliveries (flush reason and
    ``flushed_at`` included), CPU charges and trace events logged."""

    def __init__(self, make, how, accounted, traced):
        self.how, self.delivered, self.events = how, [], []
        self.meter = RecordingMeter()
        with sanitizing():
            self.gro = make(self._deliver, GroCpuAccountant(self.meter)
                            if accounted else None)
        if traced:
            self.gro.attach_tracer(Tracer([CallbackSink(
                lambda e: self.events.append(
                    (type(e).__name__, str(dataclasses.asdict(e)))))]))
        self._reason = FlushReason.PASSTHROUGH
        deliver_segment = self.gro._deliver_segment

        def reasoned(segment, reason, now):
            self._reason = reason
            deliver_segment(segment, reason, now)
            self._reason = FlushReason.PASSTHROUGH

        self.gro._deliver_segment = reasoned

    def _deliver(self, segment):
        self.delivered.append(
            (self._reason, *_run(segment), segment.flushed_at))


def snapshot(side):
    """Everything compared: stats, the flow table in eviction order (list by
    list, OOO nodes with their packets, then the flow index), the held
    ``_batch``, ``next_deadline()``, deliveries, charges and events."""
    gro = side.gro
    state = {f"stats.{f.name}": getattr(gro.stats, f.name)
             for f in dataclasses.fields(GroStats)}
    table = getattr(gro, "table", None)
    state["table"] = [] if table is None else [
        (name, str(e.key), e.phase, e.seq_next, e.lost_seq, e.hole_since,
         e.flush_timestamp, e.last_seen, [_run(n) for n in e.ofo.nodes])
        for name, bucket in table._lists.items() for e in bucket.values()
    ] + [str(key) for key in table._flows]
    state["held"] = [(str(flow), _run(segment))
                     for flow, segment in getattr(gro, "_batch", {}).items()]
    state.update(next_deadline=gro.next_deadline(), events=side.events,
                 delivered=side.delivered, charges=side.meter.charges)
    return state


def assert_equivalent(make_a, make_b, polls, *, feed_a="receive_batch",
                      feed_b="receive_batch", accounted=False, traced=False):
    """Drive both engines through ``polls``, comparing after every step;
    returns side A for the caller's own assertions."""
    sides = (Side(make_a, feed_a, accounted, traced),
             Side(make_b, feed_b, accounted, traced))

    def step(when, act):
        for side in sides:
            act(side)
        left, right = map(snapshot, sides)
        for field, value in left.items():
            assert value == right[field], (field, when)

    for index, (now, packets, complete, timer_at) in enumerate(polls):
        step(("poll", index), lambda s: feed(s.gro, packets, now, s.how))
        if complete:
            step(("complete", index), lambda s: s.gro.poll_complete(now))
        if timer_at is not None:
            step(("timer", index), lambda s: s.gro.check_timeouts(timer_at))
            now = timer_at
    step("flush_all", lambda s: s.gro.flush_all(now + 1))
    return sides[0]
