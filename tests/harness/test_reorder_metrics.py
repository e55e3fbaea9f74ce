"""RFC 4737-style reordering metrics."""

import random

from repro.harness.reorder_metrics import (
    ReorderObserver,
    recommend_ofo_timeout,
)


def feed(pairs):
    observer = ReorderObserver()
    for seq, now in pairs:
        observer.observe(seq, now)
    return observer


def test_in_order_stream_clean():
    stats = feed((i, i * 100) for i in range(50)).stats()
    assert stats.reordered == 0
    assert stats.reordered_fraction == 0.0
    assert stats.max_displacement == 0
    assert stats.max_delay_ns == 0


def test_single_swap():
    stats = feed([(0, 0), (2, 100), (1, 200), (3, 300)]).stats()
    assert stats.reordered == 1
    assert stats.max_displacement == 1
    # Packet 1 was blocked from when packet 2 arrived (t=100) to t=200.
    assert stats.max_delay_ns == 100


def test_straggler_delay_measured_from_first_overtaker():
    stats = feed([(0, 0), (5, 10), (6, 20), (7, 30), (1, 500)]).stats()
    assert stats.reordered == 1
    assert stats.max_delay_ns == 490  # since packet 5 at t=10


def test_duplicates_ignored():
    observer = feed([(0, 0), (1, 10), (1, 20), (2, 30)])
    assert observer.duplicates == 1
    assert observer.stats().reordered == 0


def test_fraction():
    stats = feed([(1, 0), (0, 10), (3, 20), (2, 30)]).stats()
    assert stats.reordered_fraction == 0.5


def test_empty_observer():
    stats = ReorderObserver().stats()
    assert stats.packets == 0
    assert stats.reordered_fraction == 0.0


def test_netfpga_style_split_measured():
    """A synthetic two-path split: half the packets delayed by tau."""
    rng = random.Random(1)
    tau = 250_000
    arrivals = []
    for i in range(400):
        send = i * 1_200
        delay = tau if rng.random() < 0.5 else 0
        arrivals.append((i, send + delay))
    arrivals.sort(key=lambda p: p[1])
    stats = feed(arrivals).stats()
    assert 0.2 < stats.reordered_fraction < 0.6
    # The observed worst-case reorder delay approximates tau.
    assert tau * 0.8 < stats.max_delay_ns <= tau


def test_recommend_ofo_timeout_rule():
    stats = feed([(0, 0), (2, 100_000), (1, 350_000)]).stats()
    assert stats.max_delay_ns == 250_000
    # tau - tau0, with 20% headroom.
    assert recommend_ofo_timeout(stats, coalesce_ns=125_000) == 150_000
    assert recommend_ofo_timeout(stats) == 300_000
    # Coalescing larger than tau: nothing left to cover.
    assert recommend_ofo_timeout(stats, coalesce_ns=1_000_000) == 0


def test_end_to_end_with_simulated_switch():
    """Wire the observer behind the NetFPGA switch and recover tau."""
    from repro.fabric.netfpga import ReorderingSwitch
    from repro.net.addr import FiveTuple
    from repro.net.constants import MSS
    from repro.net.packet import Packet
    from repro.sim.engine import Engine
    from repro.sim.time import MS, US

    engine = Engine()
    observer = ReorderObserver()

    class Tap:
        def receive(self, packet):
            observer.observe(packet.seq, engine.now)

    switch = ReorderingSwitch(engine, Tap(), random.Random(2),
                              rate_gbps=10.0, delay_ns=250 * US)
    flow = FiveTuple(1, 2, 1000, 80)
    for i in range(500):
        engine.schedule(i * 1230, switch.receive, Packet(flow, i * MSS, MSS))
    engine.run_until(5 * MS)
    stats = observer.stats()
    assert stats.reordered_fraction > 0.2
    assert 180 * US < stats.max_delay_ns < 260 * US
    # The tuning rule lands in the range Figure 13 found optimal.
    rec = recommend_ofo_timeout(stats, coalesce_ns=125 * US)
    assert 50 * US < rec < 250 * US
