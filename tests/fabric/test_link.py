"""QueuedLink: serialisation, strict priority, capacity, ECN marking."""

import pytest

from repro.fabric.link import QueuedLink
from repro.faults.controller import FaultEngine
from repro.faults.plan import FaultPlan
from repro.net.addr import FiveTuple
from repro.net.constants import (
    MSS,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    transmit_time_ns,
)
from repro.net.packet import Packet
from repro.sim.engine import Engine

FLOW = FiveTuple(1, 2, 1000, 80)


class Sink:
    def __init__(self):
        self.packets = []

    def receive(self, packet):
        self.packets.append(packet)


def pkt(seq=0, size=MSS, priority=PRIORITY_LOW):
    return Packet(FLOW, seq, size, priority=priority)


def test_delivers_after_serialisation_and_propagation():
    engine = Engine()
    sink = Sink()
    link = QueuedLink(engine, 10.0, sink, prop_delay_ns=500)
    link.enqueue(pkt())
    expected = transmit_time_ns(MSS, 10.0) + 500
    engine.run_until(expected - 1)
    assert sink.packets == []
    engine.run_until(expected)
    assert len(sink.packets) == 1


def test_fifo_order_preserved():
    engine = Engine()
    sink = Sink()
    link = QueuedLink(engine, 10.0, sink)
    packets = [pkt(i * MSS) for i in range(5)]
    for p in packets:
        link.enqueue(p)
    engine.run()
    assert [p.seq for p in sink.packets] == [i * MSS for i in range(5)]


def test_rate_sets_throughput():
    engine = Engine()
    sink = Sink()
    link = QueuedLink(engine, 10.0, sink, prop_delay_ns=0)
    for i in range(100):
        link.enqueue(pkt(i * MSS))
    engine.run()
    gbps = sum(p.wire_len for p in sink.packets) * 8 / engine.now
    assert gbps == pytest.approx(10.0, rel=0.01)


def test_strict_priority_preemption_between_packets():
    engine = Engine()
    sink = Sink()
    link = QueuedLink(engine, 10.0, sink, priorities=2, prop_delay_ns=0)
    for i in range(3):
        link.enqueue(pkt(i * MSS, priority=PRIORITY_LOW))
    link.enqueue(pkt(99 * MSS, priority=PRIORITY_HIGH))
    engine.run()
    # The high-priority packet overtakes the queued low ones (but not the
    # packet already on the wire).
    assert [p.seq for p in sink.packets][:2] == [0, 99 * MSS]


def test_capacity_tail_drop_per_priority():
    engine = Engine()
    sink = Sink()
    wire = pkt().wire_len
    link = QueuedLink(engine, 10.0, sink, priorities=2,
                      capacity_bytes=2 * wire, prop_delay_ns=0)
    # One goes to the transmitter; two fit in the low queue; rest drop.
    for i in range(6):
        link.enqueue(pkt(i * MSS, priority=PRIORITY_LOW))
    assert link.stats.drops == 3
    # The high-priority queue has its own budget.
    link.enqueue(pkt(99 * MSS, priority=PRIORITY_HIGH))
    assert link.stats.drops == 3


def test_ecn_marks_when_queue_deep():
    engine = Engine()
    sink = Sink()
    wire = pkt().wire_len
    link = QueuedLink(engine, 10.0, sink, ecn_threshold_bytes=2 * wire,
                      prop_delay_ns=0)
    for i in range(6):
        link.enqueue(pkt(i * MSS))
    engine.run()
    marked = [p for p in sink.packets if p.ce]
    assert len(marked) == link.stats.ce_marked
    assert 0 < len(marked) < 6


def test_ecn_never_marks_pure_acks():
    engine = Engine()
    sink = Sink()
    link = QueuedLink(engine, 10.0, sink, ecn_threshold_bytes=0,
                      prop_delay_ns=0)
    link.enqueue(pkt())
    ack = Packet(FLOW, 0, 0)
    link.enqueue(ack)
    engine.run()
    assert not ack.ce


def test_no_marking_when_disabled():
    engine = Engine()
    sink = Sink()
    link = QueuedLink(engine, 10.0, sink)
    for i in range(20):
        link.enqueue(pkt(i * MSS))
    engine.run()
    assert link.stats.ce_marked == 0


def test_queue_depth_accounting():
    engine = Engine()
    sink = Sink()
    link = QueuedLink(engine, 10.0, sink, priorities=2)
    link.enqueue(pkt(0, priority=PRIORITY_LOW))  # goes to wire
    link.enqueue(pkt(MSS, priority=PRIORITY_LOW))
    link.enqueue(pkt(2 * MSS, priority=PRIORITY_HIGH))
    assert link.queued_packets == 2
    assert link.queue_depth(PRIORITY_HIGH) == 1
    assert link.queue_depth(PRIORITY_LOW) == 1
    engine.run()
    assert link.queued_packets == 0
    assert link.queued_bytes == 0


def test_stats_utilization():
    engine = Engine()
    sink = Sink()
    link = QueuedLink(engine, 10.0, sink, prop_delay_ns=0)
    link.enqueue(pkt())
    engine.run()
    assert link.stats.busy_ns == engine.now  # busy the whole run


def test_max_queue_bytes_high_water_mark():
    engine = Engine()
    link = QueuedLink(engine, 10.0, Sink())
    for i in range(5):
        link.enqueue(pkt(i * MSS))
    assert link.stats.max_queue_bytes == 4 * pkt().wire_len


def test_invalid_parameters():
    with pytest.raises(ValueError):
        QueuedLink(Engine(), 0, Sink())
    with pytest.raises(ValueError):
        QueuedLink(Engine(), 10.0, Sink(), priorities=0)


@pytest.mark.parametrize("rate_gbps", [10.0, 40.0, 100.0, 9.4253])
def test_serialisation_time_equals_transmit_time_ns_for_every_payload(rate_gbps):
    # The link memoises the serialisation time per wire length; the second
    # pass reads every size back from the memo.
    engine = Engine()
    link = QueuedLink(engine, rate_gbps, Sink(), prop_delay_ns=0)
    for _ in range(2):
        for size in range(MSS + 1):
            start = engine.now
            link.enqueue(pkt(size=size))
            engine.run()
            assert engine.now - start == transmit_time_ns(size, rate_gbps)


def test_capacity_clamp_mid_busy_period_drops_the_same_packets_as_pr13():
    # The queue_saturation path: a FaultEngine clamps capacity_bytes while
    # the transmitter is busy and restores it 12 us later.  90 arrivals at
    # 450 ns spacing (2.7x the line rate), every third one high priority,
    # sizes alternating 400 B / MSS.  Drops and delivery order are those of
    # the link before it posted handle-free events and cached wire lengths.
    engine = Engine()
    delivered = []

    class Record:
        def receive(self, packet):
            delivered.append((packet.seq, engine.now))

    link = QueuedLink(engine, 10.0, Record(), priorities=2,
                      capacity_bytes=9_000)
    faults = FaultEngine(engine, FaultPlan.from_dict({"faults": [
        {"name": "sq", "kind": "queue_saturation", "at_us": 14,
         "duration_us": 12, "params": {"capacity_bytes": 4_000}}]}),
        tracer=None)
    faults.bind(links=[link])
    faults.start()

    def arrive(i):
        link.enqueue(pkt(seq=i, size=MSS if i % 2 else 400,
                         priority=PRIORITY_HIGH if i % 3 == 0
                         else PRIORITY_LOW))

    for i in range(90):
        engine.post_at(i * 450, arrive, i)
    engine.run()

    order = [seq for seq, _ in delivered]
    assert sorted(set(range(90)) - set(order)) == [
        22, 23, 25,                                     # 9 KB tail drops
        31, 32, 34, 35, 37, 38, 40, 41, 43, 44, 46, 47, 49, 50, 52, 53, 55,
        67, 71, 73, 77, 83, 85, 89]                     # restored: 9 KB again
    assert order == [
        0, 1, 3, 6, 2, 4, 9, 5, 12, 15, 18, 7, 21, 24, 8, 10, 11, 27, 30, 33,
        13, 36, 39, 42, 14, 16, 17, 45, 48, 51, 19, 54, 57, 60, 20, 26, 28,
        63, 66, 29, 69, 72, 56, 58, 75, 59, 78, 81, 84, 61, 87, 62, 64, 65,
        68, 70, 74, 76, 79, 80, 82, 86, 88]
    assert delivered[-1] == (88, 47_530)
    assert link.stats.drops == 27
    assert link.capacity_bytes == 9_000
