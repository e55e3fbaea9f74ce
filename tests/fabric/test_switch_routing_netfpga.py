"""Switch forwarding, load-balancing policies, NetFPGA switch, dropper."""

import random

import pytest

from repro.fabric.detector import ReorderDetector
from repro.fabric.link import QueuedLink
from repro.fabric.netfpga import ReorderingSwitch
from repro.fabric.routing import EcmpRouting, PerPacketRouting, PerTsoRouting
from repro.fabric.switch import Switch
from repro.faults.injectors import LossInjector
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet
from repro.sim.engine import Engine
from repro.sim.time import US


class Sink:
    def __init__(self):
        self.packets = []

    def receive(self, packet):
        self.packets.append(packet)


def pkt(flow, seq=0, tso_id=None):
    return Packet(flow, seq, MSS, tso_id=tso_id)


# --- routing policies -----------------------------------------------------------


def test_ecmp_consistent_per_flow():
    policy = EcmpRouting()
    flow = FiveTuple(1, 2, 1000, 80)
    choices = {policy.choose(pkt(flow, i), 4) for i in range(50)}
    assert len(choices) == 1


def test_ecmp_spreads_flows():
    policy = EcmpRouting()
    choices = {policy.choose(pkt(FiveTuple(i, 2, 1000 + i, 80)), 4)
               for i in range(64)}
    assert len(choices) == 4


def test_per_tso_keeps_burst_together():
    policy = PerTsoRouting()
    flow = FiveTuple(1, 2, 1000, 80)
    burst = {policy.choose(pkt(flow, i, tso_id=7), 4) for i in range(10)}
    assert len(burst) == 1


def test_per_tso_spreads_bursts():
    policy = PerTsoRouting()
    flow = FiveTuple(1, 2, 1000, 80)
    choices = {policy.choose(pkt(flow, 0, tso_id=i), 4) for i in range(64)}
    assert len(choices) == 4


def test_per_packet_round_robin():
    policy = PerPacketRouting()
    flow = FiveTuple(1, 2, 1000, 80)
    seq = [policy.choose(pkt(flow), 3) for _ in range(6)]
    assert seq == [1, 2, 0, 1, 2, 0]


def test_per_packet_random_covers_all_ports():
    policy = PerPacketRouting(random.Random(1))
    flow = FiveTuple(1, 2, 1000, 80)
    choices = {policy.choose(pkt(flow), 4) for _ in range(100)}
    assert choices == {0, 1, 2, 3}


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_spray_draws_are_randrange_draws(seed):
    """A spray choice is ``Random.randrange(nports)``: the same ports from the
    same seed, and the stream left in the same state, for every port count
    (n = 1 draws until it gets a 0, as ``randrange(1)`` does)."""
    rng, twin = random.Random(seed), random.Random(seed)
    policy = PerPacketRouting(rng)
    packet = pkt(FiveTuple(1, 2, 1000, 80))
    for nports in range(1, 10):
        assert ([policy.choose(packet, nports) for _ in range(64)]
                == [twin.randrange(nports) for _ in range(64)]), nports
        assert rng.getstate() == twin.getstate(), nports


@pytest.mark.parametrize("rng", [None, random.Random(1)],
                         ids=["round-robin", "random"])
@pytest.mark.parametrize("nports", [0, -1])
def test_per_packet_without_ports_is_a_value_error(rng, nports):
    with pytest.raises(ValueError):
        PerPacketRouting(rng).choose(pkt(FiveTuple(1, 2, 1000, 80)), nports)


# --- switch ----------------------------------------------------------------------


def test_switch_direct_route_wins():
    engine = Engine()
    local, up = Sink(), Sink()
    switch = Switch()
    switch.add_route(2, QueuedLink(engine, 10.0, local))
    switch.add_uplink(QueuedLink(engine, 10.0, up))
    switch.receive(pkt(FiveTuple(1, 2, 1000, 80)))
    engine.run()
    assert len(local.packets) == 1
    assert up.packets == []


def test_switch_uplink_for_remote():
    engine = Engine()
    up = Sink()
    switch = Switch()
    switch.add_uplink(QueuedLink(engine, 10.0, up))
    switch.receive(pkt(FiveTuple(1, 99, 1000, 80)))
    engine.run()
    assert len(up.packets) == 1


def test_switch_unroutable_counted():
    switch = Switch()
    switch.receive(pkt(FiveTuple(1, 99, 1000, 80)))
    assert switch.unroutable == 1


def test_switch_stamps_path_id():
    engine = Engine()
    switch = Switch(policy=PerPacketRouting())
    sinks = [Sink(), Sink()]
    for sink in sinks:
        switch.add_uplink(QueuedLink(engine, 10.0, sink))
    for i in range(4):
        switch.receive(pkt(FiveTuple(1, 99, 1000, 80), i * MSS))
    engine.run()
    assert all(p.path_id == 0 for p in sinks[0].packets)
    assert all(p.path_id == 1 for p in sinks[1].packets)


def test_detector_assignment_is_attach_and_none_detaches():
    """``switch.detector = d`` binds ``d.observe`` exactly as
    ``attach_detector(d)`` does; reassigning moves observation to the new
    detector and ``None`` stops it."""
    engine = Engine()
    flow = FiveTuple(1, 2, 1000, 80)
    attached, assigned = Switch(), Switch()
    for switch in (attached, assigned):
        switch.add_route(2, QueuedLink(engine, 10.0, Sink()))
    first, second, third = (ReorderDetector() for _ in range(3))
    attached.attach_detector(first)
    assigned.detector = second
    for switch in (attached, assigned):
        for seq in (2, 0, 1):
            switch.receive(pkt(flow, seq * MSS))
    assert first.stats == second.stats
    assert first.stats.packets == 3 and first.stats.reordered_packets == 2
    assigned.detector = third
    assigned.receive(pkt(flow, 0))
    assert (second.stats.packets, third.stats.packets) == (3, 1)
    assigned.detector = None
    assigned.receive(pkt(flow, 0))
    assert assigned.detector is None
    assert (second.stats.packets, third.stats.packets) == (3, 1)


# --- NetFPGA reordering switch ----------------------------------------------------


def test_netfpga_splits_roughly_evenly():
    engine = Engine()
    sink = Sink()
    switch = ReorderingSwitch(engine, sink, random.Random(3),
                              delay_ns=250 * US)
    flow = FiveTuple(1, 2, 1000, 80)
    for i in range(200):
        switch.receive(pkt(flow, i * MSS))
    engine.run()
    assert 60 < switch.packets_delayed < 140


def test_netfpga_slow_queue_adds_delay():
    engine = Engine()
    sink = Sink()
    switch = ReorderingSwitch(engine, sink, random.Random(3),
                              delay_ns=250 * US)
    flow = FiveTuple(1, 2, 1000, 80)
    for i in range(100):
        switch.receive(pkt(flow, i * MSS))
    engine.run()
    fast = [p for p in sink.packets if p.path_id == 0]
    slow = [p for p in sink.packets if p.path_id == 1]
    assert min(p.received_at or 0 for p in slow) >= 0  # smoke
    # Arrival order mixes the two halves -> genuine reordering.
    seqs = [p.seq for p in sink.packets]
    assert seqs != sorted(seqs)


def test_netfpga_zero_delay_preserves_order():
    engine = Engine()
    sink = Sink()
    switch = ReorderingSwitch(engine, sink, random.Random(3), delay_ns=0)
    flow = FiveTuple(1, 2, 1000, 80)
    for i in range(100):
        engine.schedule(i * 1300, switch.receive, pkt(flow, i * MSS))
    engine.run()
    seqs = [p.seq for p in sink.packets]
    assert seqs == sorted(seqs)


# --- loss injector (the unified drop model, repro.faults) ------------------------------------------------------------------


def test_loss_injector_rate():
    sink = Sink()
    drop = LossInjector(sink, random.Random(5), p=0.3)
    flow = FiveTuple(1, 2, 1000, 80)
    for i in range(2000):
        drop.receive(pkt(flow, i * MSS))
    assert drop.dropped + drop.passed == 2000
    assert 0.25 < drop.dropped / 2000 < 0.35


def test_loss_injector_zero_p_passes_everything():
    sink = Sink()
    drop = LossInjector(sink, random.Random(5), p=0.0)
    drop.receive(pkt(FiveTuple(1, 2, 1000, 80)))
    assert drop.passed == 1 and drop.dropped == 0


def test_loss_injector_validates_p():
    with pytest.raises(ValueError):
        LossInjector(Sink(), random.Random(0), p=1.5)
