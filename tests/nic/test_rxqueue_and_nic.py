"""NIC model: ring buffer, interrupt coalescing, NAPI, RSS."""

import pytest

from repro.core.config import JugglerConfig
from repro.core.juggler import JugglerGRO
from repro.core.standard_gro import StandardGRO
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet
from repro.nic.nic import RECONCILED_FIELDS, Nic, NicConfig
from repro.nic.rxqueue import RxQueue
from repro.sim.engine import Engine
from repro.sim.time import US

FLOW = FiveTuple(1, 2, 1000, 80)


def pkt(seq, flow=FLOW):
    return Packet(flow, seq, MSS)


def make_queue(engine, coalesce_ns=125 * US, coalesce_frames=0, ring_size=64):
    out = []
    gro = JugglerGRO(out.append, JugglerConfig())
    queue = RxQueue(engine, gro, coalesce_ns=coalesce_ns,
                    coalesce_frames=coalesce_frames, ring_size=ring_size)
    return queue, out


def test_interrupt_fires_after_coalescing_period():
    engine = Engine()
    queue, _ = make_queue(engine, coalesce_ns=100 * US)
    queue.enqueue(pkt(0))
    engine.run_until(99 * US)
    assert queue.backlog == 1
    engine.run_until(101 * US)
    assert queue.backlog == 0
    assert queue.polls == 1


def test_packets_accumulate_during_coalescing():
    engine = Engine()
    queue, out = make_queue(engine, coalesce_ns=100 * US)
    for i in range(5):
        queue.enqueue(pkt(i * MSS))
    engine.run_until(200 * US)
    assert queue.delivered == 5
    # All five arrived in one poll and merged into one segment.
    assert len(out) == 1
    assert out[0].mtus == 5


def test_frame_threshold_fires_early():
    engine = Engine()
    queue, _ = make_queue(engine, coalesce_ns=1000 * US, coalesce_frames=3)
    queue.enqueue(pkt(0))
    engine.run_until(10 * US)
    assert queue.backlog == 1  # below threshold: still waiting
    queue.enqueue(pkt(MSS))
    queue.enqueue(pkt(2 * MSS))  # hits the frame trigger
    engine.run_until(11 * US)
    assert queue.backlog == 0
    assert queue.polls == 1


def test_ring_overflow_drops():
    engine = Engine()
    queue, _ = make_queue(engine, ring_size=4)
    for i in range(6):
        queue.enqueue(pkt(i * MSS))
    assert queue.dropped == 2
    assert queue.backlog == 4


def test_hrtimer_flushes_between_polls():
    engine = Engine()
    out = []
    gro = JugglerGRO(out.append, JugglerConfig(inseq_timeout=15 * US,
                                               ofo_timeout=50 * US))
    queue = RxQueue(engine, gro, coalesce_ns=10 * US)
    queue.enqueue(pkt(0))
    queue.enqueue(pkt(2 * MSS))  # hole at MSS: ofo deadline armed
    engine.run_until(11 * US)  # poll at 10us; nothing expired yet
    assert out == []
    engine.run_until(26 * US)  # hrtimer fires the inseq timeout (10+15us)
    assert len(out) == 1
    # The hole reached the queue head at the 25us flush; its ofo clock runs
    # from there, so the hrtimer fires the ofo timeout at 75us.
    engine.run_until(74 * US)
    assert len(out) == 1
    engine.run_until(76 * US)
    assert len(out) == 2
    assert gro.loss_recovery_list_len == 1


def test_received_at_stamped():
    engine = Engine()
    queue, _ = make_queue(engine)
    engine.schedule(42, queue.enqueue, pkt(0))
    engine.run_until(50)
    # Ring still holds it; arrival time stamped at enqueue.
    p = queue._ring[0]
    assert p.received_at == 42


def test_drain_flushes_everything():
    engine = Engine()
    queue, out = make_queue(engine)
    queue.enqueue(pkt(0))
    queue.enqueue(pkt(2 * MSS))
    queue.drain()
    assert queue.backlog == 0
    assert sum(s.mtus for s in out) == 2


def test_nic_rss_pins_flow_to_one_queue():
    engine = Engine()
    delivered = []
    nic = Nic(engine, delivered.append,
              lambda d: StandardGRO(d), NicConfig(num_queues=8))
    flows = [FiveTuple(i, 2, 5000 + i, 80) for i in range(32)]
    for flow in flows:
        for i in range(4):
            assert nic.queue_for(Packet(flow, i * MSS, MSS)) is \
                nic.queue_for(Packet(flow, 0, MSS))


def test_nic_spreads_flows_across_queues():
    engine = Engine()
    nic = Nic(engine, lambda s: None,
              lambda d: StandardGRO(d), NicConfig(num_queues=4))
    queues = {nic.queue_for(Packet(FiveTuple(i, 2, 5000 + i, 80), 0, MSS))
              for i in range(64)}
    assert len(queues) == 4


def test_nic_each_queue_gets_own_gro():
    engine = Engine()
    nic = Nic(engine, lambda s: None,
              lambda d: StandardGRO(d), NicConfig(num_queues=3))
    gros = {id(q.gro) for q in nic.queues}
    assert len(gros) == 3


def test_nic_config_validation():
    with pytest.raises(ValueError):
        NicConfig(num_queues=0)
    with pytest.raises(ValueError):
        NicConfig(coalesce_ns=-1)
    with pytest.raises(ValueError, match="coalesce_frames.*-3"):
        NicConfig(coalesce_frames=-3)


def test_nic_dropped_aggregates_queues():
    engine = Engine()
    nic = Nic(engine, lambda s: None,
              lambda d: StandardGRO(d),
              NicConfig(num_queues=1))
    nic.queues[0].ring_size = 2
    for i in range(5):
        nic.receive(pkt(i * MSS))
    assert nic.dropped == 3


# -- pluggable steering --------------------------------------------------------


def test_nic_default_steering_is_rss():
    from repro.steer.policy import RssSteering

    engine = Engine()
    nic = Nic(engine, lambda s: None,
              lambda d: StandardGRO(d), NicConfig(num_queues=4))
    assert isinstance(nic.steering, RssSteering)
    for i in range(32):
        flow = FiveTuple(i, 2, 5000 + i, 80)
        assert nic.queue_for(Packet(flow, 0, MSS)) is \
            nic.queues[flow.rss_hash() % 4]


def test_nic_honors_static_affinity_policy():
    from repro.steer.static import StaticAffinitySteering

    engine = Engine()
    flow_a, flow_b = FiveTuple(1, 2, 5000, 80), FiveTuple(1, 2, 5001, 80)
    steering = StaticAffinitySteering({flow_a: 3, flow_b: 0})
    nic = Nic(engine, lambda s: None, lambda d: StandardGRO(d),
              NicConfig(num_queues=4), steering=steering)
    nic.receive(pkt(0, flow_a))
    nic.receive(pkt(0, flow_b))
    assert nic.queues[3].backlog == 1
    assert nic.queues[0].backlog == 1


def test_nic_flow_director_rebalance_moves_traffic_between_queues():
    import random

    from repro.steer.flow_director import (
        FlowDirectorConfig,
        FlowDirectorSteering,
    )

    engine = Engine()
    steering = FlowDirectorSteering(
        FlowDirectorConfig(sample_rate=1, groups=4),
        rng=random.Random(3))
    nic = Nic(engine, lambda s: None, lambda d: StandardGRO(d),
              NicConfig(num_queues=4, coalesce_ns=10 * US),
              steering=steering)
    flows = [FiveTuple(i, 2, 5000 + i, 80) for i in range(16)]
    seq = [0] * 16
    used = set()
    for round_ in range(24):
        for i, flow in enumerate(flows):
            nic.receive(Packet(flow, seq[i], MSS))
            seq[i] += MSS
            used.add(nic.steering.current_queue(flow))
        engine.run_until((round_ + 1) * 20 * US)
        nic.steering.rebalance(1.0)
    assert steering.migrations > 0
    assert len(used) > 1


def test_whole_nic_delivers_the_same_packets_under_rss_and_fdir():
    """Steering moves packets between queues, never drops or doubles them.

    One reordered many-flow stream through a 4-queue Juggler NIC: Flow
    Director migrates flows mid-stream (their state straddles two queues'
    private GRO tables), yet every flow's delivered packets are exactly the
    stream's — the same answer plain RSS gives.
    """
    import random

    from ..differential import reordered_stream
    from repro.steer.flow_director import (
        FlowDirectorConfig,
        FlowDirectorSteering,
    )

    stream = reordered_stream(16, 24, window=4, seed=7)

    def by_flow(packets):
        per_flow = {}
        for p in packets:
            per_flow.setdefault(p.flow, []).append((p.seq, p.payload_len))
        return {flow: sorted(pkts) for flow, pkts in per_flow.items()}

    def run(steering):
        engine = Engine()
        segments = []
        nic = Nic(engine, segments.append,
                  lambda d: JugglerGRO(d, JugglerConfig()),
                  NicConfig(num_queues=4, coalesce_ns=10 * US),
                  steering=steering)
        for k in range(0, len(stream), 32):
            for p in stream[k:k + 32]:
                nic.receive(Packet(p.flow, p.seq, p.payload_len))
            engine.run_until(engine.now + 20 * US)
        nic.drain()
        assert sum(q.delivered for q in nic.queues) == len(stream)
        return (by_flow(p for s in segments for p in s.packets),
                [q.delivered for q in nic.queues])

    fdir = FlowDirectorSteering(FlowDirectorConfig(sample_rate=4, groups=4),
                                rng=random.Random(11))
    rss_flows, rss_queues = run(None)
    fdir_flows, fdir_queues = run(fdir)
    assert rss_flows == fdir_flows == by_flow(stream)
    # Not vacuous: Flow Director really spread the stream differently.
    assert fdir.installs > 0 and fdir_queues != rss_queues


def test_nic_drain_reconciles_per_queue_metrics():
    """drain() writes final per-queue polls/drop counters, idempotently."""
    from repro.trace import runtime
    from repro.trace.tracer import Tracer
    from repro.trace.sinks import CallbackSink

    tracer = Tracer([CallbackSink(lambda e: None)])
    with runtime.tracing(tracer):
        engine = Engine()
        nic = Nic(engine, lambda s: None,
                  lambda d: StandardGRO(d),
                  NicConfig(num_queues=2, coalesce_ns=50 * US))
        for queue in nic.queues:
            queue.ring_size = 2
        assert nic.imbalance() == 1.0  # nothing delivered yet
        # 5 packets of one flow land on one queue: ring 2 -> 3 drops there.
        for i in range(5):
            nic.receive(pkt(i * MSS))
        hot = nic.queue_for(pkt(0))
        hot_index = nic.queues.index(hot)
        engine.run_until(60 * US)
        nic.drain()
        snap = tracer.metrics.snapshot()
        assert snap[f"nic.rxq{hot_index}.dropped"] == 3
        assert snap[f"nic.rxq{1 - hot_index}.dropped"] == 0
        assert snap[f"nic.rxq{hot_index}.polls"] >= 1
        assert snap[f"nic.rxq{hot_index}.delivered"] == 2
        assert {f"nic.rxq{j}.{field}" for j in range(2)
                for field in RECONCILED_FIELDS} <= set(snap)
        nic.drain()  # idempotent
        assert tracer.metrics.snapshot() == snap
        assert nic.imbalance() == 2.0  # all on one of two queues


def test_shard_gauges_read_back_their_own_queue():
    """``steer<i>.shard<j>.*`` gauges report queue *j*, for every *j*.

    ``Nic._bind_shard_metrics`` registers the probes in a per-queue loop; a
    late-bound loop variable there would make every gauge read the last
    queue.  Each queue gets a different flow count, packet count and
    overflow so no two shards share a value.
    """
    from repro.steer.static import StaticAffinitySteering
    from repro.trace import runtime
    from repro.trace.tracer import Tracer
    from repro.trace.sinks import CallbackSink

    ring = 8
    flows = {j: [FiveTuple(j, 2, 5000 + k, 80) for k in range(j + 1)]
             for j in range(4)}
    steering = StaticAffinitySteering(
        {flow: j for j, pinned in flows.items() for flow in pinned})
    tracer = Tracer([CallbackSink(lambda e: None)])
    with runtime.tracing(tracer):
        engine = Engine()
        nic = Nic(engine, lambda s: None,
                  lambda d: JugglerGRO(d, JugglerConfig()),
                  NicConfig(num_queues=4, coalesce_ns=10 * US),
                  steering=steering)
        for queue in nic.queues:
            queue.ring_size = ring
    # Polled round: queue j sees j+1 flows, one packet each.
    for pinned in flows.values():
        for flow in pinned:
            nic.receive(pkt(0, flow))
    engine.run_until(20 * US)
    # Unpolled round: queue j overflows its ring by j packets.
    for j, pinned in flows.items():
        for i in range(ring + j):
            nic.receive(pkt((1 + i) * MSS, pinned[0]))
    snap = tracer.metrics.snapshot()
    for field, expected in (("delivered", [1, 2, 3, 4]),
                            ("dropped", [0, 1, 2, 3]),
                            ("occupancy", [1, 2, 3, 4])):
        assert [snap[f"steer0.shard{j}.{field}"]
                for j in range(4)] == expected, field
