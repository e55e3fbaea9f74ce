"""CONGA-style flowlet switching."""

import random

import pytest

from repro.fabric.link import QueuedLink
from repro.fabric.routing import FlowletRouting
from repro.fabric.switch import Switch
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet
from repro.sim.engine import Engine
from repro.sim.time import US

FLOW = FiveTuple(1, 2, 1000, 80)


def pkt(seq=0, flow=FLOW):
    return Packet(flow, seq, MSS)


def test_back_to_back_packets_share_path():
    policy = FlowletRouting(random.Random(1), flowlet_gap_ns=100 * US)
    policy.observe(0)
    first = policy.choose(pkt(0), 4)
    for i in range(1, 20):
        policy.observe(i * 10 * US)  # gaps well under the threshold
        assert policy.choose(pkt(i * MSS), 4) == first
    assert policy.flowlets_started == 1


def test_gap_starts_new_flowlet():
    policy = FlowletRouting(random.Random(1), flowlet_gap_ns=100 * US)
    policy.observe(0)
    policy.choose(pkt(0), 4)
    policy.observe(500 * US)  # idle gap beyond the threshold
    policy.choose(pkt(MSS), 4)
    assert policy.flowlets_started == 2


def test_new_flowlet_may_change_path():
    policy = FlowletRouting(random.Random(3), flowlet_gap_ns=10 * US)
    choices = set()
    for i in range(40):
        policy.observe(i * 1000 * US)  # every packet its own flowlet
        choices.add(policy.choose(pkt(i * MSS), 4))
    assert len(choices) == 4


def test_flows_tracked_independently():
    policy = FlowletRouting(random.Random(7), flowlet_gap_ns=100 * US)
    other = FiveTuple(9, 9, 9, 9)
    policy.observe(0)
    a = policy.choose(pkt(0), 8)
    b = policy.choose(pkt(0, flow=other), 8)
    policy.observe(50 * US)
    assert policy.choose(pkt(MSS), 8) == a
    assert policy.choose(pkt(MSS, flow=other), 8) == b


def test_gap_validation():
    with pytest.raises(ValueError):
        FlowletRouting(random.Random(1), flowlet_gap_ns=-1)


def test_engine_clock_wins_over_observe():
    """With an engine supplied, gap detection reads the simulation clock
    directly — a stale observe() call cannot fake a gap."""
    engine = Engine()
    policy = FlowletRouting(random.Random(1), flowlet_gap_ns=100 * US,
                            engine=engine)
    policy.observe(10_000_000 * US)  # stale/naive caller: ignored
    policy.choose(pkt(0), 4)
    policy.choose(pkt(MSS), 4)  # engine.now is still 0: same flowlet
    assert policy.flowlets_started == 1


def test_flowlet_emits_pin_and_move_events():
    """Flowlet boundaries emit the same flowcut_pin/flowcut_move trace
    vocabulary as FlowcutRouting, tagged policy='flowlet'."""

    class RecordingTracer:
        def __init__(self):
            self.pins = []
            self.moves = []

        def flowcut_pin(self, now, flow, policy, port):
            self.pins.append((flow, policy, port))

        def flowcut_move(self, now, flow, policy, old_port, new_port):
            self.moves.append((flow, policy, old_port, new_port))

    policy = FlowletRouting(random.Random(3), flowlet_gap_ns=10 * US)
    policy.tracer = tracer = RecordingTracer()
    policy.observe(0)
    first = policy.choose(pkt(0), 4)
    assert tracer.pins == [(FLOW, "flowlet", first)]
    moved = 0
    for i in range(1, 30):
        policy.observe(i * 1000 * US)  # every packet its own flowlet
        port = policy.choose(pkt(i * MSS), 4)
        if port != first:
            moved += 1
        first = port
    assert policy.flowlets_moved == moved
    assert len(tracer.moves) == moved
    assert all(m[1] == "flowlet" for m in tracer.moves)


def test_switch_supplies_time_to_flowlet_policy():
    engine = Engine()

    class Sink:
        def __init__(self):
            self.packets = []

        def receive(self, packet):
            self.packets.append(packet)

    policy = FlowletRouting(random.Random(2), flowlet_gap_ns=50 * US)
    switch = Switch(policy=policy, engine=engine)
    sinks = [Sink(), Sink()]
    for sink in sinks:
        switch.add_uplink(QueuedLink(engine, 10.0, sink))
    # A burst, a long pause, another burst.
    for i in range(5):
        engine.schedule(i * 1 * US, switch.receive, pkt(i * MSS))
    for i in range(5):
        engine.schedule(1000 * US + i * 1 * US, switch.receive,
                        pkt((5 + i) * MSS))
    engine.run()
    assert policy.flowlets_started == 2
    # Each burst stayed on one path (no intra-burst reordering possible).
    first_burst = {p.path_id for s in sinks for p in s.packets
                   if p.seq < 5 * MSS}
    second_burst = {p.path_id for s in sinks for p in s.packets
                    if p.seq >= 5 * MSS}
    assert len(first_burst) == 1 and len(second_burst) == 1


def test_flowlet_switching_in_clos_avoids_reordering():
    """With a gap above the path-delay skew, flowlet switching delivers
    in order — CONGA's core claim — while still using both uplinks."""
    from repro.fabric.topology import build_clos
    from repro.core.standard_gro import StandardGRO
    from repro.sim.time import MS
    from repro.tcp.config import TcpConfig
    from repro.tcp.connection import Connection

    engine = Engine()
    rng = random.Random(5)
    net = build_clos(engine, lambda d: StandardGRO(d),
                     lambda: FlowletRouting(rng, flowlet_gap_ns=200 * US),
                     n_tors=2, hosts_per_tor=2, n_spines=2)
    conns = [Connection(engine, net.hosts[i], net.hosts[2 + i], 1000, 80,
                        TcpConfig(), pacing_gbps=2.0) for i in range(2)]
    for conn in conns:
        conn.send(1 << 22)
    engine.run_until(30 * MS)
    for conn in conns:
        assert conn.receiver.ooo_segments <= 2  # essentially in order
        assert conn.delivered_bytes == 1 << 22
