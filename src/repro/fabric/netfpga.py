"""The NetFPGA-10G reordering switch of Figure 11.

"Two hosts are connected by a NetFPGA-10G switch, which hashes each inbound
packet to one of two output queues uniformly at random.  The delay of each
output queue can be configured per-packet to precisely control the amount
of reordering seen by the hosts."

We model the two queues as parallel line-rate transmitters into the same
sink, the second adding a configurable extra delay τ.  A packet sent to the
slow queue arrives τ later than its wire position — exactly the paper's
knob for the Figure 12/13/14 sweeps.
"""

from __future__ import annotations

import random

from repro.fabric.link import PacketSink, QueuedLink
from repro.net.packet import Packet
from repro.sim.engine import Engine


class ReorderingSwitch:
    """Uniform-random two-queue delay switch between one pair of hosts."""

    def __init__(
        self,
        engine: Engine,
        sink: PacketSink,
        rng: random.Random,
        *,
        rate_gbps: float = 10.0,
        delay_ns: int = 250_000,
        prop_delay_ns: int = 500,
        name: str = "netfpga",
    ):
        self._random = rng.random
        self.delay_ns = delay_ns
        self.fast_queue = QueuedLink(
            engine, rate_gbps, sink, prop_delay_ns=prop_delay_ns,
            name=f"{name}.fast",
        )
        self.slow_queue = QueuedLink(
            engine, rate_gbps, sink, prop_delay_ns=prop_delay_ns + delay_ns,
            name=f"{name}.slow",
        )

    def receive(self, packet: Packet) -> None:
        """Hash to the fast or slow queue with probability 1/2 each."""
        if self._random() < 0.5:
            packet.path_id = 0
            self.fast_queue.enqueue(packet)
        else:
            packet.path_id = 1
            self.slow_queue.enqueue(packet)

    @property
    def packets_delayed(self) -> int:
        """Packets that took the slow queue."""
        return self.slow_queue.stats.packets
