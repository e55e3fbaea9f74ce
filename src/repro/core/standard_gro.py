"""The vanilla kernel's GRO — the paper's baseline (§3.1).

Standard GRO "assumes the first packet of a flow in a batch is in sequence
and continues to merge packets as long as the packet arrivals are in the
sequence number order.  It flushes the batched packet whenever its size
exceeds a preconfigured maximum (64KB) or when the next packet is not in
sequence.  ...  When the kernel finishes polling, standard GRO flushes all
its packets and starts fresh from the next polling interval."

Under reordering this collapses batching to a couple of MTUs per segment —
the "roughly 15 times more segments" of §5.1.1 — which is what saturates the
vanilla receiver's CPU in Figures 9 and 10.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.base import DeliverFn, GroEngine
from repro.core.flush import FlushReason
from repro.cpu.accounting import GroCpuAccountant
from repro.net.addr import FiveTuple
from repro.net.constants import MAX_GRO_SEGMENT, MSS
from repro.net.packet import Packet
from repro.net.segment import BatchingMode, Segment


class StandardGRO(GroEngine):
    """In-sequence-only batching, state cleared at every poll completion."""

    def __init__(
        self,
        deliver: DeliverFn,
        accountant: Optional[GroCpuAccountant] = None,
        max_segment_bytes: int = MAX_GRO_SEGMENT,
    ):
        super().__init__(deliver, accountant)
        self.max_segment_bytes = max_segment_bytes
        self._batch: Dict[FiveTuple, Segment] = {}

    @property
    def held_flows(self) -> int:
        """Flows with a partially merged segment in the current batch."""
        return len(self._batch)

    def receive(self, packet: Packet, now: int) -> None:
        """Merge if next-in-sequence; otherwise flush and restart."""
        accountant = self.accountant
        if accountant is not None:
            accountant.on_rx_packet()
            accountant.on_gro_packet()
        if packet.payload_len == 0:
            self._passthrough(packet, now)
            return
        self.stats.packets += 1

        held = self._batch.get(packet.flow)
        if held is not None:
            if held.can_append(packet, self.max_segment_bytes):
                held.append(packet)
                self.stats.merges += 1
                if accountant is not None:
                    accountant.on_merge(BatchingMode.FRAGS_ARRAY)
                if held.closed:
                    self._flush(packet.flow, FlushReason.FLAGS, now)
                elif held.payload_len + MSS > self.max_segment_bytes:
                    self._flush(packet.flow, FlushReason.SEGMENT_FULL, now)
                return
            # Not mergeable: out of sequence or header mismatch.  Flush the
            # held segment, then start fresh with this packet.
            reason = (
                FlushReason.UNMERGEABLE
                if packet.seq == held.end_seq
                else FlushReason.OUT_OF_SEQUENCE
            )
            self._flush(packet.flow, reason, now)

        segment = Segment([packet])
        if segment.closed:
            self._deliver_segment(segment, FlushReason.FLAGS, now)
            return
        self._batch[packet.flow] = segment

    def _flush(self, flow: FiveTuple, reason: FlushReason, now: int) -> None:
        segment = self._batch.pop(flow)
        self._deliver_segment(segment, reason, now)

    def poll_complete(self, now: int) -> None:
        """Flush everything and start fresh — vanilla GRO keeps no state
        across polling intervals."""
        if self.accountant is not None:
            self.accountant.on_poll()
        for flow in list(self._batch):
            self._flush(flow, FlushReason.POLL_END, now)

    def flush_all(self, now: int) -> None:
        """Teardown drain (same as a poll completion for vanilla GRO)."""
        for flow in list(self._batch):
            self._flush(flow, FlushReason.SHUTDOWN, now)
