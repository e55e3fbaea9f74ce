"""Property-based conservation laws for the fabric."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.fabric.link import QueuedLink
from repro.fabric.routing import EcmpRouting
from repro.fabric.switch import Switch
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet
from repro.sim.engine import Engine


class Sink:
    def __init__(self):
        self.packets = []

    def receive(self, packet):
        self.packets.append(packet)


@given(st.lists(st.tuples(st.integers(0, 100), st.integers(0, 1),
                          st.integers(100, MSS)),
                min_size=1, max_size=60))
@settings(max_examples=100, deadline=None)
def test_uncapped_link_conserves_packets(items):
    """Without a capacity, every enqueued packet is eventually delivered,
    and per-priority order is preserved."""
    engine = Engine()
    sink = Sink()
    link = QueuedLink(engine, 10.0, sink, priorities=2)
    sent = []
    for seq, priority, size in items:
        packet = Packet(FiveTuple(1, 2, 1000, 80), seq * MSS, size,
                        priority=priority)
        sent.append(packet)
        link.enqueue(packet)
    engine.run()
    assert len(sink.packets) == len(sent)
    assert link.stats.drops == 0
    assert link.queued_bytes == 0
    for priority in (0, 1):
        sent_ids = [p.pid for p in sent if p.priority == priority]
        recv_ids = [p.pid for p in sink.packets if p.priority == priority]
        assert recv_ids == sent_ids


@given(st.lists(st.integers(0, 1), min_size=1, max_size=80),
       st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_capped_link_delivered_plus_dropped_is_total(priorities, cap_pkts):
    engine = Engine()
    sink = Sink()
    wire = Packet(FiveTuple(1, 2, 1, 2), 0, MSS).wire_len
    link = QueuedLink(engine, 10.0, sink, priorities=2,
                      capacity_bytes=cap_pkts * wire)
    for i, priority in enumerate(priorities):
        link.enqueue(Packet(FiveTuple(1, 2, 1000, 80), i * MSS, MSS,
                            priority=priority))
    engine.run()
    assert len(sink.packets) + link.stats.drops == len(priorities)


@given(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 3)),
                min_size=1, max_size=100))
@settings(max_examples=100, deadline=None)
def test_switch_routes_every_packet_somewhere(flows):
    """Direct + uplink deliveries + unroutable = everything received."""
    engine = Engine()
    local = Sink()
    ups = [Sink(), Sink()]
    switch = Switch(policy=EcmpRouting())
    switch.add_route(7, QueuedLink(engine, 10.0, local))
    for up in ups:
        switch.add_uplink(QueuedLink(engine, 10.0, up))
    n = len(flows)
    for src, dst in flows:
        switch.receive(Packet(FiveTuple(src, dst, 1000, 80), 0, MSS))
    engine.run()
    delivered = len(local.packets) + sum(len(u.packets) for u in ups)
    assert delivered + switch.unroutable == n
    assert all(p.flow.dst == 7 for p in local.packets)
