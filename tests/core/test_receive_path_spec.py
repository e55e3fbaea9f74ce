"""The receive path's spec: one pipeline, whatever the poll size.

``JugglerGRO.receive_batch`` and ``StandardGRO.receive_batch`` each hold
their engine's only per-packet body (``receive`` is a length-1 batch), so
a poll must be observably the same machine whether the NAPI layer hands it
down one packet at a time or as a list: ``tests/differential.py`` drives
each engine both ways over golden streams that carry every header shape
the pipeline branches on.  Each of those shapes is also pinned on its own
as a per-packet case with its Table 1 / Table 2 outcome spelled out.  The
whole module runs under JSAN, so a corner cut in the pipeline trips an
invariant rather than a diff.
"""

from __future__ import annotations

import pytest

from repro.analysis.runtime import sanitizing
from repro.core.config import JugglerConfig
from repro.core.flush import FlushReason
from repro.core.juggler import JugglerGRO
from repro.core.phases import Phase
from repro.core.standard_gro import StandardGRO
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet
from repro.sim.time import US

from ..differential import FIN, PSH, assert_equivalent, feed, spiced_polls

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
    "juggler": lambda deliver: JugglerGRO(deliver, JugglerConfig()),
    "standard": StandardGRO,
}


@pytest.fixture(autouse=True)
def _sanitized():
    with sanitizing():
        yield


def per_packet_vs_batch(engine, shape, traced=False):
    seed, flows, pkts, window = shape
    return assert_equivalent(ENGINES[engine], ENGINES[engine],
                             spiced_polls(seed, flows, pkts, window, 0.05),
                             feed_a="receive", traced=traced)


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"seed{s[0]}")
@pytest.mark.parametrize("traced", (False, True), ids=("plain", "traced"))
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_receive_matches_receive_batch(engine, shape, traced):
    side = per_packet_vs_batch(engine, shape, traced)
    assert side.delivered, "nothing was delivered"
    assert bool(side.events) == traced


def test_table_overflow_evicts_mid_batch():
    """The 96-flow shape churns admissions and evictions inside a poll."""
    stats = per_packet_vs_batch("juggler", SHAPES[2]).gro.stats
    assert stats.flows_created > JugglerConfig().table_capacity
    assert stats.total_evictions > 0


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


def _data(k, ce=False, **kw):
    packet = Packet(FLOW, BASE + k * MSS, MSS, **kw)
    if ce:
        packet.mark_ce()
    return packet


#: name -> (packets, flush reasons the poll must add, (seq, end) ranges in
#: MSS units from BASE that must be delivered by the end of the poll).
CASES = {
    # seq < seq_next mid-run: handed up at once, the rest keep merging.
    "ooo": (lambda: [_data(0), Packet(FLOW, 2 * MSS, MSS), _data(1)],
            {FlushReason.RETRANSMISSION: 1}, [(2 - 8, 3 - 8)]),
    # Table 2 row 2: a flush-forcing flag closes and flushes the run.  PSH
    # is not part of the merge signature, so it rides as the run's tail;
    # FIN is, so the FIN packet is a run of its own.
    "psh": (lambda: [_data(0), _data(1, flags=PSH), _data(2)],
            {FlushReason.FLAGS: 1}, [(0, 2)]),
    "fin": (lambda: [_data(0), _data(1, flags=FIN), _data(2)],
            {FlushReason.UNMERGEABLE: 1, FlushReason.FLAGS: 1},
            [(0, 1), (1, 2)]),
    # Table 2 row 3: contiguous but header-mismatched runs never merge.
    "ce": (lambda: [_data(0), _data(1, ce=True), _data(2)],
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
@pytest.mark.parametrize("how", ("receive", "receive_batch"))
def test_header_shape_on_a_warm_flow(case, how):
    build, reasons, ranges = CASES[case]
    segs = []
    g = ENGINES["juggler"](segs.append)
    now = _warm(g) + 1000
    before = dict(g.stats.flush_reasons)
    del segs[:]
    feed(g, build(), now, how)
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


@pytest.mark.parametrize("how", ("receive", "receive_batch"))
def test_first_poll_leaves_fresh_flows_in_build_up(how):
    segs = []
    g = ENGINES["juggler"](segs.append)
    poll = [Packet(FiveTuple(50 + i, 2, 4000 + i, 80), k * MSS, MSS)
            for i in range(8) for k in range(4)]
    feed(g, poll, 0, how)
    g.poll_complete(0)
    assert not segs
    assert len(g.table) == 8
    assert all(entry.phase is Phase.BUILD_UP and entry.seq_next == 0
               for entry in g.table)
