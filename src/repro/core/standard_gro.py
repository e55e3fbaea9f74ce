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

from typing import Dict, List

from repro.analysis import runtime as sanitize_runtime
from repro.core.base import DeliverFn, GroEngine
from repro.core.flush import FlushReason
from repro.net.addr import FiveTuple
from repro.net.constants import MAX_GRO_SEGMENT, MSS
from repro.net.packet import Packet
from repro.net.segment import Segment


class StandardGRO(GroEngine):
    """In-sequence-only batching, state cleared at every poll completion."""

    def __init__(
        self,
        deliver: DeliverFn,
        max_segment_bytes: int = MAX_GRO_SEGMENT,
    ):
        super().__init__(deliver)
        self.max_segment_bytes = max_segment_bytes
        self._batch: Dict[FiveTuple, Segment] = {}
        sanitizer = sanitize_runtime.current()
        if sanitizer is not None:  # JSAN: §3.1's rule shadows this instance
            from repro.analysis.spec import GroSpec

            sanitizer.arm(self, GroSpec(linked=False, cap=max_segment_bytes))

    def receive_batch(self, packets: List[Packet], now: int) -> None:
        """Merge each packet if next-in-sequence; otherwise flush and restart.

        The only per-packet body: a merge is ``Segment.can_append`` /
        ``append`` as slot reads and stores, so a held flow's next packet
        costs the ``_batch`` probe and no other call.
        """
        stats = self.stats
        batch = self._batch
        max_bytes = self.max_segment_bytes
        #: A held run longer than this has no room for one more MSS.
        room_for_mss = max_bytes - MSS
        for packet in packets:
            payload = packet.payload_len
            if payload == 0:
                self._passthrough(packet, now)
                continue
            stats.packets += 1
            flow = packet.flow
            held = batch.get(flow)
            if held is not None:
                seq = packet.seq
                if (not held._closed and held._payload + payload <= max_bytes
                        and seq == held.end_seq and packet.sig == held.sig):
                    held.packets.append(packet)
                    held.end_seq = seq + payload
                    held.mtus += 1
                    held._payload += payload
                    held._closed = closed = packet.forces_flush
                    if packet.sent_at < held.first_sent_at:
                        held.first_sent_at = packet.sent_at
                    stats.merges += 1
                    if closed:
                        del batch[flow]
                        self._deliver_segment(held, FlushReason.FLAGS, now)
                    elif held._payload > room_for_mss:
                        del batch[flow]
                        self._deliver_segment(held, FlushReason.SEGMENT_FULL,
                                              now)
                    continue
                # Not mergeable: out of sequence or header mismatch.  Flush
                # the held segment, then start fresh with this packet.
                del batch[flow]
                self._deliver_segment(
                    held, FlushReason.UNMERGEABLE if seq == held.end_seq
                    else FlushReason.OUT_OF_SEQUENCE, now)
            segment = Segment([packet])
            if segment._closed:
                # PSH/FIN opening a run: delivered at once, never held.
                self._deliver_segment(segment, FlushReason.FLAGS, now)
            else:
                batch[flow] = segment

    def _flush(self, flow: FiveTuple, reason: FlushReason, now: int) -> None:
        segment = self._batch.pop(flow)
        self._deliver_segment(segment, reason, now)

    def poll_complete(self, now: int) -> None:
        """Flush everything and start fresh — vanilla GRO keeps no state
        across polling intervals."""
        self.stats.polls += 1
        for flow in list(self._batch):
            self._flush(flow, FlushReason.POLL_END, now)

    def flush_all(self, now: int) -> None:
        """Teardown drain (same as a poll completion for vanilla GRO)."""
        for flow in list(self._batch):
            self._flush(flow, FlushReason.SHUTDOWN, now)
