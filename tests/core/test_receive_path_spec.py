"""The receive path's spec: one pipeline, whatever the poll size.

``JugglerGRO.receive_batch`` and ``StandardGRO.receive_batch`` each hold
their engine's only per-packet body (``receive`` is a length-1 batch), so
a poll must be observably the same machine whether
the NAPI layer hands it down one packet at a time or as a 32-packet
list: full stats, flow-table snapshots (per-entry phase, sequence state
and OOO node summaries), delivered-segment summaries down to the
per-packet (seq, len) lists, and, when a tracer is attached, the complete
typed event sequence.  The golden streams carry every header shape the
pipeline branches on; each of those shapes is also pinned on its own as a
per-packet case with its Table 1 / Table 2 outcome spelled out.  The whole
module runs under JSAN, so a corner cut in the pipeline trips an invariant
rather than a diff.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.runtime import sanitizing
from repro.core.config import JugglerConfig
from repro.core.flush import FlushReason
from repro.core.juggler import JugglerGRO
from repro.core.phases import Phase
from repro.core.standard_gro import StandardGRO
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.flags import TcpFlags
from repro.net.packet import Packet
from repro.perf.workloads import reordered_stream
from repro.sim.time import US
from repro.trace.sinks import CallbackSink
from repro.trace.tracer import Tracer

#: Golden (seed, flows, pkts/flow, window) shapes.  96 flows overflows the
#: default 64-entry table, so admission/eviction runs mid-batch; the
#: single-flow shape keeps one OOO queue deep.
SHAPES = (
    (7, 48, 64, 8),
    (11, 8, 200, 16),
    (23, 96, 32, 4),
    (3, 1, 600, 12),
)

ENGINES = {
    "juggler": lambda sink: JugglerGRO(sink, config=JugglerConfig()),
    "standard": lambda sink: StandardGRO(sink),
}


@pytest.fixture(autouse=True)
def _sanitized():
    with sanitizing():
        yield


def spiced_stream(seed: int, flows: int, pkts: int, window: int):
    """A reordered stream with every header shape sprinkled in."""
    base = reordered_stream(flows, pkts, window=window, seed=seed)
    out = []
    for i, p in enumerate(base):
        flags = TcpFlags.ACK
        options = ()
        if i % 37 == 0:
            flags = TcpFlags.ACK | TcpFlags.PSH
        if i % 53 == 0:
            options = (("ts", i),)
        pk = Packet(p.flow, p.seq, p.payload_len, flags=flags,
                    options=options, sent_at=(i * 13) % 1009)
        if i % 41 == 0:
            pk.mark_ce()
        out.append(pk)
        if i % 29 == 0:
            # A pure ACK riding the stream: passthrough.
            out.append(Packet(p.flow, p.seq, 0, sent_at=(i * 13) % 1009))
    return out


def clone(pkts):
    out = []
    for p in pkts:
        q = Packet(p.flow, p.seq, p.payload_len, flags=p.flags,
                   options=p.options, sent_at=p.sent_at)
        if p.ce:
            q.mark_ce()
        out.append(q)
    return out


def stats_tuple(g):
    s = g.stats
    return (s.packets, s.merges, s.duplicates, s.nodes_scanned,
            s.flows_created, s.passthrough_packets, s.segments,
            s.batched_mtus, s.ooo_segments,
            tuple(sorted((r.value, n) for r, n in s.flush_reasons.items())),
            tuple(sorted((p.value, n) for p, n in s.evictions.items())))


def table_snapshot(g):
    return sorted(
        (str(e.key), e.phase.value, e.seq_next, e.lost_seq, e.hole_since,
         e.flush_timestamp,
         tuple((n.seq, n.end_seq, n.mtus, n._payload, n._closed,
                n.first_sent_at) for n in e.ofo.nodes))
        for e in getattr(g, "table", ()))


def segment_summaries(segs):
    return [(str(s.flow), s.seq, s.end_seq, s.mtus, s._payload, s._closed,
             s.first_sent_at, s.flushed_at,
             tuple((p.seq, p.payload_len) for p in s.packets))
            for s in segs]


def event_summaries(events):
    out = []
    for e in events:
        d = dataclasses.asdict(e)
        d["kind"] = e.kind
        d.pop("flow", None)
        out.append((type(e).__name__, str(getattr(e, "flow", None)),
                    tuple(sorted((k, str(v)) for k, v in d.items()))))
    return out


def feed(g, chunk, now, per_packet):
    if per_packet:
        for p in chunk:
            g.receive(p, now)
    else:
        g.receive_batch(chunk, now)


def drive(engine_factory, stream, *, per_packet, batch=32, traced=False):
    """One run: (stats, flow table, deliveries, trace events)."""
    segs = []
    events = []
    g = engine_factory(segs.append)
    if traced:
        g.attach_tracer(Tracer([CallbackSink(events.append)]))
    pkts = clone(stream)
    now = 0
    for off in range(0, len(pkts), batch):
        chunk = pkts[off:off + batch]
        now = (off + len(chunk)) * 100
        feed(g, chunk, now, per_packet)
        g.poll_complete(now)
        g.check_timeouts(now + 51_000 if off % (batch * 4) == 0 else now)
    g.flush_all(now + 1)
    return (stats_tuple(g), table_snapshot(g), segment_summaries(segs),
            event_summaries(events))


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"seed{s[0]}")
@pytest.mark.parametrize("traced", (False, True), ids=("plain", "traced"))
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_receive_matches_receive_batch(engine, shape, traced):
    stream = spiced_stream(*shape)
    factory = ENGINES[engine]
    reference = drive(factory, stream, per_packet=True, traced=traced)
    got = drive(factory, stream, per_packet=False, traced=traced)
    for what, a, b in zip(("stats", "flow table", "deliveries",
                           "trace events"), got, reference):
        assert a == b, f"{what} diverged"
    assert reference[2], "nothing was delivered"
    assert bool(reference[3]) == traced


def test_table_overflow_evicts_mid_batch():
    """The 96-flow shape churns admissions and evictions inside a poll."""
    stream = spiced_stream(*SHAPES[2])
    stats = drive(ENGINES["juggler"], stream, per_packet=False)[0]
    assert stats[4] > JugglerConfig().table_capacity    # flows_created
    assert sum(n for _, n in stats[10]) > 0             # evictions


# -- one case per header shape, on a warm flow ---------------------------------

FLOW = FiveTuple(1, 2, 1000, 80)
#: ``seq_next`` of the warm flow when a case's packets arrive.
BASE = 8 * MSS


def _warm(g):
    """March FLOW out of BUILD_UP with ``seq_next == BASE``."""
    now = 0
    for k in range(3):
        g.receive(Packet(FLOW, k * MSS, MSS), now)
    g.poll_complete(now)
    now += 51 * US
    g.check_timeouts(now)
    entry = g.table.lookup(FLOW)
    assert entry.phase in (Phase.ACTIVE_MERGE, Phase.POST_MERGE)
    while entry.seq_next < BASE:
        g.receive(Packet(FLOW, entry.seq_next, MSS), now)
        now += 51 * US
        g.check_timeouts(now)
    return now


def _data(k, **kw):
    return Packet(FLOW, BASE + k * MSS, MSS, **kw)


def _ce(k):
    pk = _data(k)
    pk.mark_ce()
    return pk


#: name -> (packets, flush reasons the poll must add, (seq, end) ranges in
#: MSS units from BASE that must be delivered by the end of the poll).
CASES = {
    # seq < seq_next mid-run: handed up at once, the rest keep merging.
    "ooo": (lambda: [_data(0), Packet(FLOW, 2 * MSS, MSS), _data(1)],
            {FlushReason.RETRANSMISSION: 1}, [(2 - 8, 3 - 8)]),
    # Table 2 row 2: a flush-forcing flag closes and flushes the run.  PSH
    # is not part of the merge signature, so it rides as the run's tail;
    # FIN is, so the FIN packet is a run of its own.
    "psh": (lambda: [_data(0), _data(1, flags=TcpFlags.ACK | TcpFlags.PSH),
                     _data(2)],
            {FlushReason.FLAGS: 1}, [(0, 2)]),
    "fin": (lambda: [_data(0), _data(1, flags=TcpFlags.ACK | TcpFlags.FIN),
                     _data(2)],
            {FlushReason.UNMERGEABLE: 1, FlushReason.FLAGS: 1},
            [(0, 1), (1, 2)]),
    # Table 2 row 3: contiguous but header-mismatched runs never merge.
    "ce": (lambda: [_data(0), _ce(1), _data(2)],
           {FlushReason.UNMERGEABLE: 2}, [(0, 1), (1, 2)]),
    "options": (lambda: [_data(0), _data(1, options=(("ts", 1),)),
                         _data(2)],
                {FlushReason.UNMERGEABLE: 2}, [(0, 1), (1, 2)]),
    # A pure ACK bypasses the table; a 3-MSS payload still buffers.
    "zero_jumbo": (lambda: [_data(0), Packet(FLOW, BASE + MSS, 0),
                            Packet(FLOW, BASE + MSS, 3 * MSS), _data(4)],
                   {}, []),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("per_packet", (True, False),
                         ids=("receive", "receive_batch"))
def test_header_shape_on_a_warm_flow(case, per_packet):
    build, reasons, ranges = CASES[case]
    segs = []
    g = ENGINES["juggler"](segs.append)
    now = _warm(g) + 1000
    before = dict(g.stats.flush_reasons)
    del segs[:]
    feed(g, build(), now, per_packet)
    g.poll_complete(now)
    added = {r: n - before.get(r, 0)
             for r, n in g.stats.flush_reasons.items()
             if n != before.get(r, 0)}
    assert added == reasons
    delivered = [(s.seq, s.end_seq) for s in segs if s.payload_len]
    assert delivered == [(BASE + a * MSS, BASE + b * MSS)
                         for a, b in ranges]
    if case == "zero_jumbo":
        assert g.stats.passthrough_packets == 1
        entry = g.table.lookup(FLOW)
        assert [(n.seq, n.end_seq) for n in entry.ofo.nodes] == \
            [(BASE, BASE + 5 * MSS)]
    if case == "ooo":
        assert g.stats.ooo_segments == 1


@pytest.mark.parametrize("per_packet", (True, False),
                         ids=("receive", "receive_batch"))
def test_first_poll_leaves_fresh_flows_in_build_up(per_packet):
    segs = []
    g = ENGINES["juggler"](segs.append)
    poll = [Packet(FiveTuple(50 + i, 2, 4000 + i, 80), k * MSS, MSS)
            for i in range(8) for k in range(4)]
    feed(g, poll, 0, per_packet)
    g.poll_complete(0)
    assert not segs
    assert len(g.table) == 8
    for entry in g.table:
        assert entry.phase is Phase.BUILD_UP
        assert entry.seq_next == 0
