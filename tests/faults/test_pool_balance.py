"""Pool balance under chaos: every drop site releases exactly once.

The seed bug this guards against: drop paths (link tail-drop, ring
overflow, checksum failure, fault-injector losses) used to leak pooled
packets — the free list starved and the background generators silently
degraded to fresh allocation.  Every terminal drop now routes through
``release_terminal``, and ``PacketPool.in_flight`` must return to zero
once traffic has fully died.
"""

import random

from repro.core.standard_gro import StandardGRO
from repro.fabric.link import QueuedLink
from repro.faults.injectors import (
    BlackholeInjector,
    BurstLossInjector,
    LossInjector,
)
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet
from repro.net.pool import PacketPool, release_terminal
from repro.nic.rxqueue import RxQueue
from repro.sim.engine import Engine

FLOW = FiveTuple(1, 2, 1000, 80)


class Terminal:
    """A sink that is the packet's terminal consumer (releases it)."""

    def __init__(self):
        self.received = 0

    def receive(self, packet):
        self.received += 1
        release_terminal(packet)


def test_release_terminal_is_noop_for_unpooled_packets():
    packet = Packet(FLOW, 0, MSS)
    assert packet.origin is None
    release_terminal(packet)  # must not raise


def test_double_release_is_a_noop():
    pool = PacketPool()
    packet = pool.acquire(FLOW, 0, MSS)
    release_terminal(packet)
    release_terminal(packet)  # origin cleared by the first release
    assert pool.released == 1
    assert pool.in_flight == 0
    assert len(pool) == 1  # exactly one free-list entry, no duplication


def test_loss_injector_balances_the_pool():
    pool = PacketPool()
    terminal = Terminal()
    injector = LossInjector(terminal, random.Random(3), 0.5)
    for i in range(1000):
        injector.receive(pool.acquire(FLOW, i * MSS, MSS))
    assert injector.dropped > 0
    assert terminal.received == 1000 - injector.dropped
    assert pool.in_flight == 0
    assert pool.released == 1000


def test_burst_loss_and_blackhole_balance_the_pool():
    pool = PacketPool()
    terminal = Terminal()
    chain = BurstLossInjector(
        BlackholeInjector(terminal, random.Random(0)),
        random.Random(1), p_enter=0.1, p_exit=0.3, p_loss_bad=0.8)
    chain.sink.active = False
    for i in range(500):
        chain.receive(pool.acquire(FLOW, i * MSS, MSS))
    chain.sink.active = True  # blackhole the tail of the stream
    for i in range(500, 600):
        chain.receive(pool.acquire(FLOW, i * MSS, MSS))
    assert pool.in_flight == 0


def test_link_tail_drop_balances_the_pool():
    engine = Engine()
    terminal = Terminal()
    # Tiny per-queue buffer: most of a synchronous burst tail-drops.
    link = QueuedLink(engine, 10.0, terminal, capacity_bytes=4_000)
    pool = PacketPool()
    for i in range(100):
        link.enqueue(pool.acquire(FLOW, i * MSS, MSS))
    engine.run_until(10_000_000)
    assert link.stats.drops > 0
    assert terminal.received == 100 - link.stats.drops
    assert pool.in_flight == 0


def test_ring_overflow_and_checksum_drops_balance_the_pool():
    engine = Engine()
    delivered = []
    gro = StandardGRO(delivered.append)
    rxq = RxQueue(engine, gro, coalesce_ns=1000, ring_size=8)
    pool = PacketPool()
    # 8 fill the ring, 4 overflow.
    for i in range(12):
        rxq.enqueue(pool.acquire(FLOW, i * MSS, MSS))
    assert rxq.dropped == 4
    assert pool.in_flight == 8  # only the ring contents remain live
    engine.run_until(1_000_000)  # poll drains the ring into GRO
    # Corrupt frames die at checksum verification at the (now-empty) ring.
    corrupt = pool.acquire(FLOW, 999 * MSS, MSS)
    corrupt.corrupt = True
    rxq.enqueue(corrupt)
    assert rxq.checksum_drops == 1
    assert pool.in_flight == 8
    # GRO buffers are not terminal consumers; drain then release by hand.
    rxq.drain()
    for segment in delivered:
        for packet in segment.packets:
            release_terminal(packet)
    assert pool.in_flight == 0


def test_recycled_packets_reset_fault_state():
    """A recycled frame must not resurrect its previous corruption."""
    pool = PacketPool()
    packet = pool.acquire(FLOW, 0, MSS)
    packet.corrupt = True
    release_terminal(packet)
    fresh = pool.acquire(FLOW, MSS, MSS)
    assert fresh is packet  # recycled, not reallocated
    assert not fresh.corrupt
    assert fresh.origin is pool
