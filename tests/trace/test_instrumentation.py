"""Hooks through JugglerGRO, GroTable, RxQueue, Engine and TcpReceiver."""

from repro.core.config import JugglerConfig
from repro.core.flush import FlushReason
from repro.core.juggler import JugglerGRO
from repro.core.phases import Phase
from repro.fabric.host import Host
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet
from repro.net.segment import Segment
from repro.nic.rxqueue import RxQueue
from repro.sim.engine import Engine
from repro.sim.time import US
from repro.tcp.receiver import TcpReceiver
from repro.trace import runtime
from repro.trace.events import EventKind
from repro.trace.sinks import RingBufferSink
from repro.trace.tracer import Tracer

FLOW = FiveTuple(1, 2, 1000, 80)


def _traced_gro(**config_kw):
    ring = RingBufferSink(4096)
    tracer = Tracer([ring])
    config = JugglerConfig(inseq_timeout=15 * US, ofo_timeout=50 * US,
                           **config_kw)
    gro = JugglerGRO(lambda segment: None, config)
    gro.attach_tracer(tracer)
    return gro, ring


def test_receive_path_emits_typed_events_in_sim_time_order():
    gro, ring = _traced_gro()
    gro.receive(Packet(FLOW, 0 * MSS, MSS), 1000)      # admit, build-up
    gro.receive(Packet(FLOW, 2 * MSS, MSS), 2000)      # buffered OOO
    gro.receive(Packet(FLOW, 1 * MSS, MSS), 3000)      # merges runs together
    gro.check_timeouts(20 * US)                        # inseq_timeout flush

    events = ring.events
    kinds = [e.kind for e in events]
    assert kinds.count(EventKind.PACKET_RX) == 3
    assert EventKind.MERGE in kinds
    assert EventKind.FLUSH in kinds
    assert EventKind.PHASE in kinds

    # Event order matches the sim-time order the hooks ran in.
    ts = [e.ts for e in events]
    assert ts == sorted(ts)
    # packet_rx timestamps are exactly the `now` each receive() was given.
    rx_ts = [e.ts for e in events if e.kind is EventKind.PACKET_RX]
    assert rx_ts == [1000, 2000, 3000]


def test_phase_transitions_traced_through_table():
    gro, ring = _traced_gro()
    gro.receive(Packet(FLOW, 0, MSS), 0)
    gro.check_timeouts(20 * US)  # flush -> active_merge -> post_merge
    transitions = [(e.old_phase, e.new_phase) for e in ring.events
                   if e.kind is EventKind.PHASE]
    assert (Phase.INITIAL, Phase.BUILD_UP) == transitions[0]
    assert (Phase.BUILD_UP, Phase.ACTIVE_MERGE) in transitions
    assert (Phase.ACTIVE_MERGE, Phase.POST_MERGE) in transitions


def test_flush_events_match_stats_reasons():
    gro, ring = _traced_gro()
    for i, seq in enumerate((0, 2, 1, 5)):
        gro.receive(Packet(FLOW, seq * MSS, MSS), (i + 1) * 1000)
    gro.check_timeouts(100 * US)   # inseq_timeout flushes the 0..3 head run
    gro.check_timeouts(200 * US)   # ofo_timeout fires for the 3..5 hole
    gro.flush_all(300 * US)

    flushes = [e for e in ring.events if e.kind is EventKind.FLUSH]
    assert len(flushes) == gro.stats.segments
    by_reason = {}
    for e in flushes:
        by_reason[e.reason] = by_reason.get(e.reason, 0) + 1
    assert by_reason == dict(gro.stats.flush_reasons)
    assert FlushReason.OFO_TIMEOUT in by_reason


def test_eviction_emits_event():
    gro, ring = _traced_gro(table_capacity=2)
    for i in range(3):  # third flow evicts the first
        flow = FiveTuple(1, 2, 1000 + i, 80)
        gro.receive(Packet(flow, 0, MSS), i * 1000)
    evictions = [e for e in ring.events if e.kind is EventKind.EVICTION]
    assert len(evictions) == 1
    assert evictions[0].flow == FiveTuple(1, 2, 1000, 80)
    assert gro.stats.total_evictions == 1


def test_engines_built_under_runtime_pick_up_tracer():
    ring = RingBufferSink(64)
    with runtime.tracing(Tracer([ring])) as tracer:
        gro = JugglerGRO(lambda segment: None)
    assert gro.tracer is tracer
    assert gro.table.tracer is tracer
    # Stats were bound into the registry under a per-engine prefix.
    gro.receive(Packet(FLOW, 0, MSS), 0)
    assert tracer.metrics.snapshot()["gro0.packets"] == 1
    # Outside the context, new engines are untraced.
    assert JugglerGRO(lambda segment: None).tracer is None


def test_rxqueue_emits_timer_events():
    ring = RingBufferSink(4096)
    with runtime.tracing(Tracer([ring])):
        engine = Engine()
        gro = JugglerGRO(lambda segment: None,
                         JugglerConfig(inseq_timeout=15 * US))
        rxq = RxQueue(engine, gro, coalesce_ns=10 * US, name="rxq0")
    rxq.enqueue(Packet(FLOW, 0, MSS, sent_at=0))
    engine.run()
    sources = [e.source for e in ring.events if e.kind is EventKind.TIMER]
    assert "rxq0.irq" in sources       # coalesced interrupt fired
    assert "rxq0.hrtimer" in sources   # inseq deadline serviced by hrtimer
    # The hrtimer flush arrived with the inseq_timeout reason.
    reasons = {e.reason for e in ring.events if e.kind is EventKind.FLUSH}
    assert FlushReason.INSEQ_TIMEOUT in reasons


class _NullTx:
    def receive(self, packet):
        pass


def test_tcp_receiver_emits_delivery_events():
    ring = RingBufferSink(64)
    with runtime.tracing(Tracer([ring])):
        engine = Engine()
        host = Host(engine, 1, lambda deliver: JugglerGRO(deliver))
        host.attach_tx(_NullTx())
        receiver = TcpReceiver(engine, host, FLOW)
    host.deliver(Segment([Packet(FLOW, 0, MSS, sent_at=0)]))
    deliveries = [e for e in ring.events if e.kind is EventKind.TCP_DELIVERY]
    assert len(deliveries) == 1
    assert deliveries[0].rcv_nxt == MSS
    assert deliveries[0].nbytes == MSS
    assert receiver.rcv_nxt == MSS
