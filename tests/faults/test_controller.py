"""FaultEngine: timeline activation, environment perturbation, telemetry."""

import pytest

from repro.core.standard_gro import StandardGRO
from repro.faults.controller import FaultEngine
from repro.faults.injectors import CorruptInjector, FaultInjector, LossInjector
from repro.faults.plan import FaultPlan
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet
from repro.nic.rxqueue import RxQueue
from repro.sim.engine import Engine
from repro.sim.time import US
from repro.trace.events import EventKind
from repro.trace.sinks import CallbackSink
from repro.trace.tracer import Tracer

FLOW = FiveTuple(1, 2, 1000, 80)


class Collect:
    def __init__(self):
        self.packets = []

    def receive(self, packet):
        self.packets.append(packet)


def plan_of(*faults, seed=11):
    return FaultPlan.from_dict({"name": "t", "seed": seed,
                                "faults": list(faults)})


def wire(kind, at_us=10, duration_us=10, **extra):
    entry = {"name": f"{kind}-f", "kind": kind, "at_us": at_us,
             "duration_us": duration_us}
    entry.update(extra)
    return entry


def test_wrap_without_wire_faults_returns_sink_unchanged():
    engine = Engine()
    sink = Collect()
    faults = FaultEngine(engine, plan_of(wire("pause_poll")), tracer=None)
    assert faults.wrap(sink) is sink


def test_wrap_chains_in_plan_order_first_spec_outermost():
    engine = Engine()
    sink = Collect()
    faults = FaultEngine(
        engine, plan_of(wire("loss"), wire("corrupt")), tracer=None)
    head = faults.wrap(sink)
    assert isinstance(head, LossInjector)
    assert isinstance(head.sink, CorruptInjector)
    assert head.sink.sink is sink
    assert not head.active  # chains start dormant


def test_windows_toggle_injectors_on_the_timeline():
    engine = Engine()
    sink = Collect()
    faults = FaultEngine(
        engine,
        plan_of(wire("blackhole", at_us=10, duration_us=5,
                     every_us=20, repeats=2)),
        tracer=None)
    head = faults.wrap(sink)
    faults.start()

    # One packet per microsecond straddling both windows.
    for i in range(60):
        engine.post_at(i * US, head.receive, Packet(FLOW, i * MSS, MSS))
    engine.run_until(100 * US)

    # Windows [10,15) and [30,35) eat 5 packets each.
    dropped_seqs = {i for i in range(60)
                    if i * MSS not in {p.seq for p in sink.packets}}
    assert dropped_seqs == {10, 11, 12, 13, 14, 30, 31, 32, 33, 34}
    assert faults.injected == 2
    assert faults.cleared == 2
    assert faults.totals()["dropped"] == 10


def test_window_boundaries_emit_trace_events_and_metrics():
    seen = []
    tracer = Tracer([CallbackSink(seen.append)])
    engine = Engine()
    faults = FaultEngine(engine, plan_of(wire("loss", at_us=5, duration_us=5)),
                         tracer=tracer)
    faults.wrap(Collect())
    faults.start()
    engine.run_until(20 * US)

    kinds = [e.kind for e in seen]
    assert kinds == [EventKind.FAULT_INJECTED, EventKind.FAULT_CLEARED]
    assert seen[0].name == "loss-f"
    assert seen[0].fault == "loss"
    assert seen[0].ts == 5 * US
    assert seen[1].ts == 10 * US
    snapshot = tracer.metrics.snapshot()
    assert snapshot["faults.injected"] == 1
    assert snapshot["faults.cleared"] == 1
    assert snapshot["faults.active"] == 0


def test_queue_saturation_clamps_and_restores_link_capacity():
    class FakeLink:
        capacity_bytes = 100_000
        ecn_threshold_bytes = None

    engine = Engine()
    link = FakeLink()
    faults = FaultEngine(
        engine,
        plan_of({"name": "sq", "kind": "queue_saturation", "at_us": 10,
                 "duration_us": 10, "params": {"capacity_bytes": 4_000}}),
        tracer=None)
    faults.bind(links=[link])
    faults.start()
    engine.run_until(15 * US)
    assert link.capacity_bytes == 4_000
    engine.run_until(30 * US)
    assert link.capacity_bytes == 100_000


def test_ce_storm_zeroes_and_restores_ecn_threshold():
    class FakeLink:
        capacity_bytes = None
        ecn_threshold_bytes = 80_000

    engine = Engine()
    link = FakeLink()
    faults = FaultEngine(engine, plan_of(wire("ce_storm")), tracer=None)
    faults.bind(links=[link])
    faults.start()
    engine.run_until(15 * US)
    assert link.ecn_threshold_bytes == 0
    engine.run_until(30 * US)
    assert link.ecn_threshold_bytes == 80_000


def _rxqueue(engine):
    gro = StandardGRO(lambda segment: None)
    return RxQueue(engine, gro, coalesce_ns=5 * US, ring_size=4096)


def test_ring_overflow_shrinks_and_restores_the_ring():
    engine = Engine()
    rxq = _rxqueue(engine)
    faults = FaultEngine(
        engine,
        plan_of({"name": "ro", "kind": "ring_overflow", "at_us": 10,
                 "duration_us": 10, "params": {"ring_size": 2}}),
        tracer=None)
    faults.bind(rxqueues=[rxq])
    faults.start()

    def burst(n):
        for i in range(n):
            rxq.enqueue(Packet(FLOW, i * MSS, MSS))

    engine.post_at(12 * US, burst, 5)
    engine.run_until(15 * US)
    assert rxq.ring_size == 2
    assert rxq.dropped == 3  # 5 arrivals into a 2-slot ring
    engine.run_until(40 * US)
    assert rxq.ring_size == 4096


def test_pause_poll_stalls_service_until_the_window_closes():
    engine = Engine()
    rxq = _rxqueue(engine)
    faults = FaultEngine(
        engine, plan_of(wire("pause_poll", at_us=10, duration_us=30)),
        tracer=None)
    faults.bind(rxqueues=[rxq])
    faults.start()

    engine.post_at(12 * US, rxq.enqueue, Packet(FLOW, 0, MSS))
    # Well past the 5 us coalescing period, still inside the stall window.
    engine.run_until(30 * US)
    assert rxq.stalled
    assert rxq.delivered == 0
    assert rxq.backlog == 1
    # Window closes at 40 us; the backlog is polled immediately after.
    engine.run_until(45 * US)
    assert not rxq.stalled
    assert rxq.delivered == 1
    assert rxq.backlog == 0


def test_receiver_stall_closes_window_then_reannounces():
    class FakeConfig:
        rx_buffer = 64 * 1024

    class FakeReceiver:
        def __init__(self):
            self.config = FakeConfig()
            self.occupancy = 0
            self.announced = 0

        def announce_window(self):
            self.announced += 1

    engine = Engine()
    receiver = FakeReceiver()
    faults = FaultEngine(
        engine, plan_of(wire("receiver_stall", at_us=10, duration_us=20)),
        tracer=None)
    faults.bind(receivers=[receiver])
    faults.start()
    engine.run_until(15 * US)
    assert receiver.occupancy == 64 * 1024  # window forced shut
    assert receiver.announced == 0
    engine.run_until(40 * US)
    assert receiver.occupancy == 0
    assert receiver.announced == 1  # reopened window announced (no persist
    # timer exists in the sim to discover it otherwise)


def test_shared_spec_toggles_every_wrapped_path():
    engine = Engine()
    sinks = [Collect(), Collect()]
    faults = FaultEngine(engine, plan_of(wire("blackhole", at_us=0,
                                              duration_us=10)), tracer=None)
    heads = [faults.wrap(s) for s in sinks]
    assert heads[0] is not heads[1]
    faults.start()
    engine.run_until(1)
    assert all(h.active for h in heads)
    engine.run_until(20 * US)
    assert not any(h.active for h in heads)


def test_injector_streams_are_per_fault_and_deterministic():
    def casualties(seed):
        engine = Engine()
        sink = Collect()
        faults = FaultEngine(
            engine,
            plan_of(wire("loss", at_us=0, duration_us=1000,
                         params={"p": 0.5}), seed=seed),
            tracer=None)
        head = faults.wrap(sink)
        faults.start()
        for i in range(200):
            engine.post_at(i * US, head.receive, Packet(FLOW, i * MSS, MSS))
        engine.run_until(2000 * US)
        return [p.seq for p in sink.packets]

    assert casualties(1) == casualties(1)
    assert casualties(1) != casualties(2)


def test_start_twice_is_an_error():
    engine = Engine()
    faults = FaultEngine(engine, plan_of(wire("loss")), tracer=None)
    faults.start()
    with pytest.raises(RuntimeError, match="twice"):
        faults.start()


def test_explicit_rng_registry_wins_over_plan_seed():
    from repro.sim.rng import RngRegistry

    engine = Engine()
    registry = RngRegistry(123)
    faults = FaultEngine(engine, plan_of(wire("loss"), seed=0),
                         rng=registry, tracer=None)
    head = faults.wrap(Collect())
    assert head._rng is registry.stream("faults.loss-f")


def _testbed(**kw):
    import random

    from repro.core.config import JugglerConfig
    from repro.core.juggler import JugglerGRO
    from repro.fabric.topology import build_netfpga_pair

    return build_netfpga_pair(Engine(), random.Random(0),
                              lambda cb: JugglerGRO(cb, JugglerConfig()), **kw)


def test_no_plan_by_default():
    bed = _testbed()
    assert bed.faults is None
    # The switch queues deliver straight into the receiver: no injector, no
    # adapter, not one extra frame on the per-packet call stack.
    assert bed.switch.fast_queue.sink is bed.receiver
    assert bed.switch.slow_queue.sink is bed.receiver


def test_explicit_plan_arms_the_testbed():
    plan = plan_of(wire("loss", params={"p": 0.5}))
    bed = _testbed(fault_plan=plan)
    assert bed.faults is not None and bed.faults.plan is plan
    # The wire chain sits between the switch queues and the receiver.
    assert isinstance(bed.switch.fast_queue.sink, FaultInjector)
    assert bed.switch.fast_queue.sink.sink is bed.receiver
