"""Merged receive segments — Figure 3 of the paper.

Standard GRO merges in-sequence packets into one large sk_buff using the
``frags[]`` page array (left of Figure 3).  The alternative the paper
measures and rejects (§3.1) chains out-of-order sk_buffs in a linked list
(right of Figure 3), which costs ~50% more CPU from cache misses.  A
:class:`Segment` records which mode produced it so the CPU model can charge
the difference.
"""

from __future__ import annotations

import enum
from typing import Iterable, List

from repro.net.addr import FiveTuple
from repro.net.packet import Packet


class BatchingMode(enum.Enum):
    """How the packets inside a segment are stitched together."""

    #: Contiguous in-sequence payloads in one sk_buff's frags[] array.
    FRAGS_ARRAY = "frags"
    #: Possibly non-contiguous sk_buffs chained in a linked list.
    LINKED_LIST = "chain"


class Segment:
    """A batch of packets GRO delivers up the stack as one unit.

    ``mtus`` (the number of wire packets merged in) is the quantity Figure 12
    reports as "batching extent"; per-segment stack traversal cost is charged
    once per Segment, which is what makes batching matter for CPU load.
    """

    __slots__ = ("flow", "seq", "end_seq", "mtus", "mode", "packets",
                 "first_sent_at", "flushed_at", "in_order", "sig",
                 "_payload", "_closed")

    def __init__(self, packets: List[Packet], mode: BatchingMode = BatchingMode.FRAGS_ARRAY):
        if not packets:
            raise ValueError("a Segment must contain at least one packet")
        head = packets[0]
        self.flow: FiveTuple = head.flow
        self.packets = packets
        self.mode = mode
        self.seq = head.seq
        self.flushed_at = 0
        #: Head packet's merge signature; every later merge matched it, and
        #: prepends may only add a packet with the same signature, so it is
        #: the whole segment's signature.
        self.sig = head.sig
        if len(packets) == 1:
            # The common case — GRO opens every run with a single packet.
            self._payload = payload = head.payload_len
            self.end_seq = head.seq + payload
            self.mtus = 1
            self.first_sent_at = head.sent_at
            self.in_order = True
            self._closed = head.forces_flush
        else:
            self.end_seq = packets[-1].end_seq
            self.mtus = len(packets)
            self.first_sent_at = min(p.sent_at for p in packets)
            self.in_order = all(
                packets[i].end_seq == packets[i + 1].seq
                for i in range(len(packets) - 1)
            )
            self._payload = sum(p.payload_len for p in packets)
            self._closed = packets[-1].forces_flush

    @property
    def payload_len(self) -> int:
        """Total TCP payload bytes carried (maintained incrementally)."""
        return self._payload

    @property
    def contiguous(self) -> bool:
        """True when the packets form one gapless byte range."""
        return self.in_order

    @property
    def closed(self) -> bool:
        """True when the tail packet's flags forbid merging anything after it.

        A PSH/URG/FIN packet ends a GRO batch ("protocol semantics
        necessitates urgent delivery", Table 2); the segment may still be
        buffered briefly but never grows.
        """
        return self._closed

    @property
    def forces_flush(self) -> bool:
        """True if any packet inside carries an urgent-delivery flag."""
        return any(p.forces_flush for p in self.packets)

    def can_append(self, packet: Packet, max_payload: int | None = None) -> bool:
        """Frags-array mergeability: next-in-sequence with matching headers."""
        if self._closed:
            return False
        if max_payload is not None and self._payload + packet.payload_len > max_payload:
            return False
        return packet.seq == self.end_seq and packet.sig == self.sig

    def can_prepend(self, packet: Packet, max_payload: int | None = None) -> bool:
        """Mergeability at the head: packet ends exactly where we begin."""
        if packet.forces_flush and packet.end_seq != self.end_seq:
            # A PSH packet may only ever be a segment's tail.
            return False
        if max_payload is not None and self._payload + packet.payload_len > max_payload:
            return False
        return packet.end_seq == self.seq and packet.sig == self.sig

    def can_extend(self, other: "Segment", max_payload: int | None = None) -> bool:
        """Whether ``other`` (the next node) can be folded onto our tail."""
        if self._closed:
            return False
        if max_payload is not None and self._payload + other._payload > max_payload:
            return False
        return other.seq == self.end_seq and other.sig == self.sig

    def append(self, packet: Packet) -> None:
        """Merge ``packet`` onto the tail (caller checked :meth:`can_append`)."""
        self.packets.append(packet)
        self.end_seq = packet.end_seq
        self.mtus += 1
        self._payload += packet.payload_len
        self._closed = packet.forces_flush
        if packet.sent_at < self.first_sent_at:
            self.first_sent_at = packet.sent_at

    def prepend(self, packet: Packet) -> None:
        """Merge ``packet`` onto the head (caller checked :meth:`can_prepend`)."""
        self.packets.insert(0, packet)
        self.seq = packet.seq
        self.mtus += 1
        self._payload += packet.payload_len
        if packet.sent_at < self.first_sent_at:
            self.first_sent_at = packet.sent_at

    def extend(self, other: "Segment") -> None:
        """Fold the next node onto our tail (caller checked :meth:`can_extend`)."""
        self.packets.extend(other.packets)
        self.end_seq = other.end_seq
        self.mtus += other.mtus
        self._payload += other._payload
        self._closed = other._closed
        if other.first_sent_at < self.first_sent_at:
            self.first_sent_at = other.first_sent_at

    @classmethod
    def chain(cls, packets: Iterable[Packet]) -> "Segment":
        """Build a linked-list segment from packets in arrival order."""
        return cls(list(packets), mode=BatchingMode.LINKED_LIST)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Segment {self.flow} [{self.seq},{self.end_seq}) "
            f"mtus={self.mtus} mode={self.mode.value}>"
        )
