"""Flowcut switching: pin/move/drain/evict mechanics."""

import random

import pytest

from repro.fabric.flowcut import ExitTap, FlowcutRouting
from repro.fabric.link import QueuedLink
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet
from repro.sim.engine import Engine
from repro.sim.time import US

FLOW = FiveTuple(1, 2, 1000, 80)
OTHER = FiveTuple(9, 9, 9, 9)


def pkt(seq=0, flow=FLOW):
    return Packet(flow, seq, MSS)


class FakeLink:
    def __init__(self, queued_bytes):
        self.queued_bytes = queued_bytes


class RecordingTracer:
    def __init__(self):
        self.pins = []
        self.moves = []

    def flowcut_pin(self, now, flow, policy, port):
        self.pins.append((now, flow, policy, port))

    def flowcut_move(self, now, flow, policy, old_port, new_port):
        self.moves.append((now, flow, policy, old_port, new_port))


def make(exact=True, **kwargs):
    policy = FlowcutRouting(random.Random(1), **kwargs)
    if exact:
        policy.track_inflight()
    return policy


def test_parameter_validation():
    with pytest.raises(ValueError):
        FlowcutRouting(random.Random(1), table_capacity=0)
    with pytest.raises(ValueError):
        FlowcutRouting(random.Random(1), drain_ns=-1)
    with pytest.raises(ValueError):
        FlowcutRouting(random.Random(1), drain_ns=100, failsafe_drain_ns=50)


def test_first_packet_pins_and_stays_pinned_while_live():
    policy = make()
    policy.observe(0)
    port = policy.choose(pkt(0), 4)
    assert policy.stats.pins == 1
    assert policy.port_of(FLOW) == port
    assert policy.inflight_of(FLOW) == 1
    # Further packets while the flowcut is live (inflight > 0) never move,
    # no matter how much time passes short of the failsafe.
    for i in range(1, 10):
        policy.observe(i * 100 * US)
        assert policy.choose(pkt(i * MSS), 4) == port
    assert policy.stats.moves == 0
    assert policy.inflight_of(FLOW) == 10


def test_exact_drain_allows_move_to_least_loaded_port():
    policy = make()
    links = [FakeLink(5000), FakeLink(0), FakeLink(5000), FakeLink(5000)]
    policy.bind_links(links)
    policy.observe(0)
    # Force the initial pin onto a loaded port so a move is observable.
    links[1].queued_bytes = 9999
    first = policy.choose(pkt(0), 4)
    links[1].queued_bytes = 0
    # Live: still pinned despite a better port existing.
    assert policy.choose(pkt(MSS), 4) == first
    # Drain both in-flight packets; the next packet may re-pin.
    policy.packet_exited(FLOW)
    policy.packet_exited(FLOW)
    assert policy.inflight_of(FLOW) == 0
    policy.observe(10 * US)
    assert policy.choose(pkt(2 * MSS), 4) == 1
    assert policy.stats.moves == 1
    assert policy.stats.exits == 2
    assert policy.inflight_of(FLOW) == 1  # the re-pinning packet itself


def test_congestion_aware_pin_prefers_emptiest_uplink():
    policy = make()
    policy.bind_links([FakeLink(100), FakeLink(3), FakeLink(50)])
    policy.observe(0)
    assert policy.choose(pkt(), 3) == 1


def test_best_port_tie_break_stays_in_candidate_set():
    policy = make()
    policy.bind_links([FakeLink(7), FakeLink(0), FakeLink(0)])
    policy.observe(0)
    assert policy.choose(pkt(), 3) in (1, 2)


def test_failsafe_drain_recovers_from_lost_exits():
    policy = make(failsafe_drain_ns=1000 * US)
    policy.observe(0)
    policy.choose(pkt(0), 4)
    # The exit notification is "lost" (packet dropped in the fabric).
    assert policy.inflight_of(FLOW) == 1
    policy.observe(2000 * US)
    policy.choose(pkt(MSS), 4)
    assert policy.stats.failsafe_drains == 1
    assert policy.inflight_of(FLOW) == 1  # counter was reset, then +1


def test_time_mode_drains_after_idle_gap():
    policy = make(exact=False, drain_ns=100 * US)
    policy.bind_links([FakeLink(0), FakeLink(0)])
    policy.observe(0)
    policy.choose(pkt(0), 2)
    policy.observe(50 * US)  # under the gap: same flowcut
    policy.choose(pkt(MSS), 2)
    assert policy.stats.pins == 1 and policy.stats.moves == 0
    policy.observe(500 * US)  # past the gap: drained, may move
    policy.choose(pkt(2 * MSS), 2)
    assert policy.stats.moves + policy.stats.pins >= 1  # move or re-use


def test_full_table_of_live_flowcuts_overflows_to_stable_hash():
    policy = make(table_capacity=1)
    policy.observe(0)
    policy.choose(pkt(0), 4)  # occupies the only slot, live
    ports = {policy.choose(pkt(0, flow=OTHER), 4) for _ in range(5)}
    assert len(ports) == 1  # stable per-flow hash, still in-order
    assert policy.stats.overflows == 5
    assert policy.port_of(OTHER) is None


def test_drained_entry_is_evicted_for_a_new_flow():
    policy = make(table_capacity=1)
    policy.observe(0)
    policy.choose(pkt(0), 4)
    policy.packet_exited(FLOW)  # drained now
    policy.choose(pkt(0, flow=OTHER), 4)
    assert policy.stats.evictions == 1
    assert policy.stats.pins == 2
    assert policy.port_of(FLOW) is None
    assert policy.port_of(OTHER) is not None
    assert policy.active == 1


def test_trace_events_pin_and_move():
    policy = make()
    policy.tracer = tracer = RecordingTracer()
    links = [FakeLink(0), FakeLink(100)]
    policy.bind_links(links)
    policy.observe(0)
    policy.choose(pkt(0), 2)
    assert tracer.pins == [(0, FLOW, "flowcut", 0)]
    links[0].queued_bytes, links[1].queued_bytes = 100, 0
    policy.packet_exited(FLOW)
    policy.observe(5 * US)
    policy.choose(pkt(MSS), 2)
    assert tracer.moves == [(5 * US, FLOW, "flowcut", 0, 1)]


def test_exit_tap_decrements_and_forwards():
    class Sink:
        def __init__(self):
            self.packets = []

        def receive(self, packet):
            self.packets.append(packet)

    policy = make()
    policy.observe(0)
    policy.choose(pkt(0), 2)
    sink = Sink()
    tap = ExitTap(sink, lambda packet: policy)
    tap.receive(pkt(0))
    assert policy.inflight_of(FLOW) == 0
    assert len(sink.packets) == 1
    # A resolve miss (locally-switched traffic) still forwards.
    none_tap = ExitTap(sink, lambda packet: None)
    none_tap.receive(pkt(MSS))
    assert len(sink.packets) == 2


def test_switch_wires_links_and_time_into_the_policy():
    """A Switch binds uplinks (congestion awareness) and supplies the
    engine clock to the wants_time policy."""
    from repro.fabric.switch import Switch

    engine = Engine()

    class Sink:
        def receive(self, packet):
            pass

    policy = make(exact=False, drain_ns=10 * US)
    switch = Switch(policy=policy, engine=engine)
    for _ in range(2):
        switch.add_uplink(QueuedLink(engine, 10.0, Sink()))
    assert policy._links == switch.uplinks
    engine.schedule(7 * US, switch.receive, pkt(0))
    engine.run()
    assert policy._now == 7 * US
