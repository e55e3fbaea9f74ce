"""One differential harness for the receive path and the link hop.

GRO: an engine is built under its own JSAN sanitizer, so its shadow holds
it to its spec (:mod:`repro.analysis.spec`: Tables 1-2 for Juggler, §3.1
for the baselines) after every poll, poll completion, hrtimer sweep and
the final ``flush_all``; one engine alone through :func:`against_spec` is
the engine-against-spec check.  Two engines — one body fed two ways,
per-packet ``receive`` against ``receive_batch`` — are handed the same
``Packet`` objects (GRO never writes to a packet) and must be the same
machine after every step: every field of :func:`snapshot` equal, where a
field an engine lacks reads as empty.  A new pair is one call,
``assert_equivalent(make_a, make_b, polls)``, with ``make(deliver)``
building an engine.

The link: :func:`link_spec` is what a link must do, in closed form; one
call, ``assert_link_equals_spec(link_class, schedule, ...)``, posts the
arrivals on a simulation engine that logs every event and compares the
deliveries and ``LinkStats`` with it.
"""

import dataclasses
import random
from collections import deque

from repro.analysis.runtime import sanitizing
from repro.core.flush import FlushReason
from repro.core.stats import GroStats
from repro.fabric.link import LinkStats
from repro.net.addr import FiveTuple
from repro.net.constants import MSS, transmit_time_ns, wire_bytes
from repro.net.flags import TcpFlags
from repro.net.packet import Packet
from repro.sim.engine import Engine
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
                    # Half old, half new once its first half is flushed;
                    # four MSS wide, it may pass whole buffered runs.
                    arrived.append(Packet(flow, rng.choice(arrived).seq
                                          + MSS // 2, MSS * rng.choice((1, 4))))
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


def _run(segment):
    return (segment.seq, segment.end_seq, segment.mtus, str(segment.flow),
            segment._payload, segment._closed, segment.first_sent_at,
            [p.pid for p in segment.packets])


class Side:
    """One engine fed ``how``, with its deliveries (flush reason and
    ``flushed_at`` included) and trace events logged."""

    def __init__(self, make, how, traced):
        self.how, self.delivered, self.events = how, [], []
        with sanitizing() as self.sanitizer:
            self.gro = make(self._deliver)
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
    """Everything compared: stats (every counter the CPU model prices
    included), the flow table in eviction order (list by list, OOO nodes
    with their packets, then the flow index), the held ``_batch``,
    ``next_deadline()``, deliveries and events."""
    gro = side.gro
    state = {f"stats.{f.name}": getattr(gro.stats, f.name)
             for f in dataclasses.fields(GroStats)}
    table = getattr(gro, "table", None)
    state["table"] = [] if table is None else [
        (name, str(e.key), e.phase, e.seq_next, e.lost_seq, e.hole_since,
         e.flush_timestamp, [_run(n) for n in e.ofo.nodes])
        for name, bucket in table._lists.items() for e in bucket.values()
    ] + [str(key) for key in table._flows]
    state["held"] = [(str(flow), _run(segment))
                     for flow, segment in getattr(gro, "_batch", {}).items()]
    state.update(next_deadline=gro.next_deadline(), events=side.events,
                 delivered=side.delivered)
    return state


def assert_equivalent(make_a, make_b, polls, *, feed_a="receive_batch",
                      feed_b="receive_batch", traced=False):
    """Drive both engines through ``polls``, comparing after every step;
    returns side A for the caller's own assertions."""
    sides = (Side(make_a, feed_a, traced), Side(make_b, feed_b, traced))

    def compare(when):
        left, right = map(snapshot, sides)
        for field, value in left.items():
            assert value == right[field], (field, when)

    return replay(sides, polls, compare)[0]


def against_spec(make, polls, traced=False):
    """One engine under its JSAN shadow through ``polls``; returns its side."""
    side = Side(make, "receive_batch", traced)
    replay([side], polls)
    assert side.sanitizer.checks_run > len(polls)  # the shadow compared
    return side


def replay(sides, polls, check=lambda when: None):
    """Hand every side each poll, completion, hrtimer sweep and the final
    ``flush_all``, calling ``check(when)`` after each; returns ``sides``."""

    def step(when, act):
        for side in sides:
            act(side)
        check(when)

    for index, (now, packets, complete, timer_at) in enumerate(polls):
        step(("poll", index), lambda s: feed(s.gro, packets, now, s.how))
        if complete:
            step(("complete", index), lambda s: s.gro.poll_complete(now))
        if timer_at is not None:
            step(("timer", index), lambda s: s.gro.check_timeouts(timer_at))
            now = timer_at
    step("flush_all", lambda s: s.gro.flush_all(now + 1))
    return sides


# -- the link hop ----------------------------------------------------------------

LINK_FLOW = FiveTuple(1, 2, 1000, 80)
LINK_GBPS = 10.0


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


def link_run(link_class, schedule, priorities, capacity, ecn, prop_delay_ns,
             clamp):
    """Feed ``schedule`` — ``(gap ns, priority, payload)`` arrivals — into a
    link from the engine, with an optional ``(at, for, capacity)``
    ``queue_saturation`` clamp; returns ``(seq, time, ce)`` per delivery,
    ``astuple(LinkStats)`` and the engine's event log."""
    engine = RecordingEngine()
    delivered = []

    class Sink:
        def receive(self, packet):
            delivered.append((packet.seq, engine.now, packet.ce))

    link = link_class(engine, LINK_GBPS, Sink(), prop_delay_ns=prop_delay_ns,
                      priorities=priorities, capacity_bytes=capacity,
                      ecn_threshold_bytes=ecn)

    def arrive(i, priority, size):
        link.enqueue(Packet(LINK_FLOW, i, size, priority=priority))

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
    return delivered, dataclasses.astuple(link.stats), engine.log


def link_spec(schedule, priorities, capacity, ecn, prop_delay_ns, clamp):
    """What :func:`link_run` must see, in closed form: one pass over the
    arrivals, no events.

    One FIFO per priority level (a higher priority clamps to the last),
    served by non-preemptive strict priority: a frame leaves at
    max(arrival, wire free) + tx(wire_len) and reaches the sink
    ``prop_delay_ns`` later.  An arrival tail-drops when its level's queued
    bytes + its wire_len exceed the capacity read at that instant (so a
    clamp applies); it is CE-marked when its level's queued bytes exceed
    ``ecn`` and it carries payload.  Queued bytes are the frames waiting,
    not the one on the wire; ``max_queue_bytes`` counts the arriving frame
    even when it goes straight onto an idle wire.

    The tie rule, within one nanosecond: the arrivals, in order; then a
    capacity change; then the departure that ends at that nanosecond.  So
    a frame arriving as the wire frees is queued: the drop and ECN tests
    count the frames waiting with it, and it starts then only if it is the
    highest-priority frame waiting.
    """
    queues = [deque() for _ in range(priorities)]
    depth = [0] * priorities
    delivered, stats, free = [], LinkStats(), -1

    def start(at):  # the next frame by priority goes on the wire at ``at``
        nonlocal free
        level = next(level for level, queue in enumerate(queues) if queue)
        seq, size, ce = queues[level].popleft()
        depth[level] -= wire_bytes(size)
        tx = transmit_time_ns(size, LINK_GBPS)
        free = at + tx
        stats.packets += 1
        stats.bytes += wire_bytes(size)
        stats.busy_ns += tx
        delivered.append((seq, free + prop_delay_ns, ce))

    at = 0
    for seq, (gap, priority, size) in enumerate(schedule):
        at += gap
        while free < at and any(depth):  # departures before this instant
            start(free)
        level, wire = min(priority, priorities - 1), wire_bytes(size)
        limit = (clamp[2] if clamp is not None and clamp[0] < at <= clamp[0] + clamp[1]
                 else capacity)
        if limit is not None and depth[level] + wire > limit:
            stats.drops += 1
            continue
        ce = ecn is not None and size > 0 and depth[level] > ecn
        stats.ce_marked += ce
        queues[level].append((seq, size, ce))
        depth[level] += wire
        stats.max_queue_bytes = max(stats.max_queue_bytes, sum(depth))
        if free < at:  # an idle wire
            start(at)
    while any(depth):
        start(free)
    return delivered, dataclasses.astuple(stats)


def assert_link_equals_spec(link_class, *config):
    """A link through ``config``'s arrivals: every delivery instant, drop,
    CE mark and counter as :func:`link_spec` says; returns the run."""
    delivered, stats, log = link_run(link_class, *config)
    assert (delivered, stats) == link_spec(*config)
    return delivered, stats, log
