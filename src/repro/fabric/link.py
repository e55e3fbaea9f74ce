"""Output-queued links with optional strict-priority service.

A :class:`QueuedLink` models one switch/NIC output port: packets enqueue
into one of N strict-priority FIFO queues and are serialised one at a time
at the link rate, then delivered to the downstream sink after the
propagation delay.  Queue depth statistics feed the paper's buffer-occupancy
observations (§5.3.2); the two-priority configuration is the substrate for
the bandwidth-guarantee system (Figures 17, 18).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Protocol

from repro.net.constants import transmit_time_ns, wire_bytes
from repro.net.packet import Packet
from repro.net.pool import release_terminal
from repro.sim.engine import Engine


class PacketSink(Protocol):
    """Anything that accepts packets at their arrival instant."""

    def receive(self, packet: Packet) -> None:  # pragma: no cover - protocol
        ...


@dataclass
class LinkStats:
    """Per-link counters."""

    packets: int = 0
    bytes: int = 0
    drops: int = 0
    busy_ns: int = 0
    max_queue_bytes: int = 0
    ce_marked: int = 0


class _TxNs(Dict[int, int]):
    """``wire_len`` -> serialisation ns at one rate, filled on first use."""

    def __init__(self, rate_gbps: float):
        super().__init__()
        self.rate_gbps = rate_gbps

    def __missing__(self, wire_len: int) -> int:
        tx_ns = self[wire_len] = transmit_time_ns(
            wire_len - wire_bytes(0), self.rate_gbps)
        return tx_ns


#: rate_gbps -> its table.  Links of one rate share a table: paced flows cut
#: runts of every size, and a table per link cost the 256-flow fig15 cell
#: 0.5 MB.  A pure memo: it carries no simulation state, so cells may share it.
_TX_NS: Dict[float, _TxNs] = {}


class QueuedLink:
    """One transmitter, N strict-priority queues, infinite-or-capped buffer."""

    def __init__(
        self,
        engine: Engine,
        rate_gbps: float,
        sink: PacketSink,
        *,
        prop_delay_ns: int = 500,
        priorities: int = 1,
        capacity_bytes: Optional[int] = None,
        ecn_threshold_bytes: Optional[int] = None,
        name: str = "link",
    ):
        if rate_gbps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_gbps}")
        if priorities < 1:
            raise ValueError(f"need at least one priority level, got {priorities}")
        if prop_delay_ns < 0:
            raise ValueError(f"link {name!r}: propagation delay must be "
                             f"non-negative, got {prop_delay_ns} ns")
        self._engine = engine
        self.rate_gbps = rate_gbps
        self.sink = sink
        self.prop_delay_ns = prop_delay_ns
        self.capacity_bytes = capacity_bytes
        #: DCTCP-style marking: packets arriving at a queue whose depth
        #: exceeds this get CE-marked (None disables marking).
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self.name = name
        self._queues: List[Deque[Packet]] = [deque() for _ in range(priorities)]
        self._queue_bytes: List[int] = [0] * priorities
        self._queued_bytes = 0
        #: Highest valid queue index; larger packet priorities clamp to it.
        self._top = priorities - 1
        #: A packet is on the wire.  While False every queue is empty.
        self._busy = False
        self._tx_ns = _TX_NS.setdefault(rate_gbps, _TxNs(rate_gbps))
        self.stats = LinkStats()

    @property
    def sink(self) -> PacketSink:
        """Where packets arrive after the propagation delay.

        Setting it binds ``sink.receive`` once, for ``_tx_done`` to post.
        That is safe because whatever wraps a sink's ``receive`` exists
        before the link: ``benchmarks/e2e`` patches every sink class before
        a cell is built, and ``FaultEngine.wrap``'s chain *is* the sink.
        """
        return self._sink

    @sink.setter
    def sink(self, sink: PacketSink) -> None:
        self._sink = sink
        self._arrive = sink.receive

    @property
    def queued_bytes(self) -> int:
        """Bytes waiting (excludes the packet currently on the wire)."""
        return self._queued_bytes

    @property
    def queued_packets(self) -> int:
        """Packets waiting across all priority levels."""
        return sum(len(q) for q in self._queues)

    def queue_depth(self, priority: int) -> int:
        """Packets waiting at one priority level."""
        return len(self._queues[priority])

    def receive(self, packet: Packet) -> None:
        """Alias so a link can terminate another link directly."""
        self.enqueue(packet)

    def enqueue(self, packet: Packet) -> None:
        """Queue ``packet`` for transmission, or put it straight on an idle
        wire.

        ``capacity_bytes`` bounds each priority level's queue separately
        (switch output queues have per-queue buffers); overflow tail-drops.
        Both limits are read per call: fault windows rewrite them mid-run.
        """
        level = packet.priority
        if level > self._top:
            level = self._top
        wire_len = packet.wire_len
        # An idle link has nothing queued at any level: depth is 0 there.
        depth = self._queue_bytes[level]
        stats = self.stats
        capacity = self.capacity_bytes
        if capacity is not None and depth + wire_len > capacity:
            stats.drops += 1
            release_terminal(packet)
            return
        threshold = self.ecn_threshold_bytes
        if (threshold is not None and depth > threshold
                and packet.payload_len > 0):
            packet.mark_ce()
            stats.ce_marked += 1
        if self._busy:
            self._queues[level].append(packet)
            self._queue_bytes[level] = depth + wire_len
            self._queued_bytes = queued = self._queued_bytes + wire_len
            if queued > stats.max_queue_bytes:
                stats.max_queue_bytes = queued
            return
        # Idle: no deque, no byte counters; the high-water mark counts it.
        if wire_len > stats.max_queue_bytes:
            stats.max_queue_bytes = wire_len
        self._busy = True
        tx_ns = self._tx_ns[wire_len]
        stats.packets += 1
        stats.bytes += wire_len
        stats.busy_ns += tx_ns
        self._engine.post(tx_ns, self._tx_done, packet)

    def _tx_done(self, packet: Packet) -> None:
        """``packet`` left the wire: post its arrival, then — in that order,
        which fixes the events' ``seq`` — start the next one, highest
        priority first."""
        post = self._engine.post
        post(self.prop_delay_ns, self._arrive, packet)
        if not self._queued_bytes:
            self._busy = False
            return
        queues = self._queues
        level = 0
        while not queues[level]:
            level += 1
        packet = queues[level].popleft()
        wire_len = packet.wire_len
        self._queue_bytes[level] -= wire_len
        self._queued_bytes -= wire_len
        tx_ns = self._tx_ns[wire_len]
        stats = self.stats
        stats.packets += 1
        stats.bytes += wire_len
        stats.busy_ns += tx_ns
        post(tx_ns, self._tx_done, packet)
