"""The rejected design from §3.1: batch regardless of order, chain sk_buffs.

"Batching packets regardless of order in GRO also has notably higher CPU
overhead ... non-contiguous packet payloads cannot be merged into a larger
segment.  Instead multiple sk_buffs would have to be chained in a linked
list (see Figure 3).  We implemented this approach and found that it causes
50% more CPU usage due to more cache misses in a simple experiment with
in-order traffic."

This engine reproduces that measurement point: every packet is chained onto
the flow's linked-list batch in *arrival* order (so TCP still sees the
reordering — the design needs TCP-side fixes too), and the CPU model prices
a cache miss per chained merge on the RX core and per delivered chain
element on the application core.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis import runtime as sanitize_runtime
from repro.core.base import DeliverFn, GroEngine
from repro.core.flush import FlushReason
from repro.net.addr import FiveTuple
from repro.net.constants import MAX_GRO_SEGMENT, MSS
from repro.net.packet import Packet
from repro.net.segment import Segment


class ChainedGRO(GroEngine):
    """Linked-list batching of packets in arrival order, per flow."""

    def __init__(self, deliver: DeliverFn):
        super().__init__(deliver)
        self._chains: Dict[FiveTuple, List[Packet]] = {}
        self._chain_bytes: Dict[FiveTuple, int] = {}
        sanitizer = sanitize_runtime.current()
        if sanitizer is not None:  # JSAN: §3.1's rule shadows this instance
            from repro.analysis.spec import GroSpec

            sanitizer.arm(self, GroSpec(linked=True))

    def receive_batch(self, packets: List[Packet], now: int) -> None:
        """Chain each packet onto its flow's batch, whatever its sequence."""
        stats = self.stats
        chains, chain_bytes = self._chains, self._chain_bytes
        for packet in packets:
            if packet.payload_len == 0:
                self._passthrough(packet, now)
                continue
            stats.packets += 1
            flow = packet.flow
            chain = chains.get(flow)
            if chain is None:
                chains[flow] = [packet]
                chain_bytes[flow] = packet.payload_len
            else:
                chain.append(packet)
                chain_bytes[flow] += packet.payload_len
                stats.merges += 1
            if packet.forces_flush:
                self._flush(flow, FlushReason.FLAGS, now)
            elif chain_bytes[flow] + MSS > MAX_GRO_SEGMENT:
                self._flush(flow, FlushReason.SEGMENT_FULL, now)

    def _flush(self, flow: FiveTuple, reason: FlushReason, now: int) -> None:
        chain = self._chains.pop(flow)
        del self._chain_bytes[flow]
        self._deliver_segment(Segment.chain(chain), reason, now)

    def poll_complete(self, now: int) -> None:
        """Like vanilla GRO, everything flushes at polling completion."""
        self.stats.polls += 1
        for flow in list(self._chains):
            self._flush(flow, FlushReason.POLL_END, now)

    def flush_all(self, now: int) -> None:
        """Teardown drain."""
        for flow in list(self._chains):
            self._flush(flow, FlushReason.SHUTDOWN, now)
