#!/usr/bin/env python3
"""Measure a path's reordering and tune Juggler from it (§5.2.1 as a tool).

Step 1: tap the wire behind a reordering fabric and quantify what it does
to a packet stream (RFC 4737-style metrics).
Step 2: apply the paper's tuning rules — inseq_timeout from the line rate,
ofo_timeout ≈ τ − τ₀ from the measured reorder delay.
Step 3: run TCP over the same fabric with the derived configuration and
check it holds line rate.

Run:  python examples/tune_ofo_timeout.py
"""

import random

from repro.core.config import JugglerConfig
from repro.core.juggler import JugglerGRO
from repro.fabric.netfpga import ReorderingSwitch
from repro.fabric.topology import build_netfpga_pair
from repro.harness.reorder_metrics import ReorderObserver, recommend_ofo_timeout
from repro.net.addr import FiveTuple
from repro.net.constants import MSS, transmit_time_ns, MAX_TSO_PAYLOAD
from repro.net.packet import Packet
from repro.nic.nic import NicConfig
from repro.sim.engine import Engine
from repro.sim.time import MS, US
from repro.tcp.config import TcpConfig
from repro.tcp.connection import Connection

RATE_GBPS = 10.0
TRUE_TAU_US = 400  # what the "network" actually does; we pretend not to know
COALESCE_NS = 125 * US


def measure_reordering() -> ReorderObserver:
    """Step 1: probe the path with a line-rate packet train and observe."""
    engine = Engine()
    observer = ReorderObserver()

    class Tap:
        def receive(self, packet):
            observer.observe(packet.seq, engine.now)

    switch = ReorderingSwitch(engine, Tap(), random.Random(11),
                              rate_gbps=RATE_GBPS,
                              delay_ns=TRUE_TAU_US * US)
    flow = FiveTuple(1, 2, 7, 7)
    gap = transmit_time_ns(MSS, RATE_GBPS)
    for i in range(2_000):
        engine.schedule(i * gap, switch.receive, Packet(flow, i * MSS, MSS))
    engine.run_until(10 * MS)
    return observer


def main() -> None:
    observer = measure_reordering()
    stats = observer.stats()
    print("Step 1 — measured path behaviour:")
    print(f"  packets observed      {stats.packets}")
    print(f"  reordered fraction    {stats.reordered_fraction:.1%}")
    print(f"  max displacement      {stats.max_displacement} packets")
    print(f"  max reorder delay     {stats.max_delay_ns / US:.0f} us "
          f"(true tau = {TRUE_TAU_US} us)")

    inseq = transmit_time_ns(MAX_TSO_PAYLOAD, RATE_GBPS)
    # The paper: "it is better to slightly over-estimate ofo_timeout since
    # packet loss is rare in datacenters."  We take no credit for interrupt
    # coalescing (its reordering help varies with arrival phase) and keep
    # the 20% headroom over the measured worst case.
    ofo = recommend_ofo_timeout(stats, coalesce_ns=0)
    print("\nStep 2 — derived Juggler configuration (§5.2.1 rules):")
    print(f"  inseq_timeout = time to receive one 64KB segment "
          f"= {inseq / US:.0f} us")
    print(f"  ofo_timeout   = measured tau x headroom "
          f"= {ofo / US:.0f} us")

    engine = Engine()
    config = JugglerConfig(inseq_timeout=inseq, ofo_timeout=ofo)
    bed = build_netfpga_pair(engine, random.Random(11),
                             lambda d: JugglerGRO(d, config),
                             rate_gbps=RATE_GBPS,
                             reorder_delay_ns=TRUE_TAU_US * US,
                             nic_config=NicConfig(coalesce_ns=COALESCE_NS))
    conn = Connection(engine, bed.sender, bed.receiver, 1000, 80,
                      TcpConfig(init_cwnd=1 << 20, rx_buffer=8 << 20))
    conn.send(1 << 40)
    engine.run_until(8 * MS)
    base = conn.delivered_bytes
    engine.run_until(28 * MS)
    gbps = (conn.delivered_bytes - base) * 8 / (20 * MS)
    print("\nStep 3 — TCP over the same path with the derived config:")
    print(f"  throughput            {gbps:.2f} Gb/s "
          f"(line rate = {RATE_GBPS:g})")
    print(f"  spurious retransmits  {conn.sender.retransmitted_packets}")
    print(f"  ooo segments to TCP   {conn.receiver.ooo_segments}")


if __name__ == "__main__":
    main()
