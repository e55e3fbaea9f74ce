"""The per-flow out-of-order queue.

The kernel patch keeps "a doubly-linked list that stores packets sorted in
sequence number order" (§4.1).  We store *merged runs* (:class:`Segment`
nodes) rather than raw packets: contiguous same-header packets collapse into
one node, which is both what the frags[] merging produces and what keeps the
queue short — the queue length is the number of discontiguous runs, not the
number of buffered packets.

Inserts scan from the tail because arrivals are nearly in order; the scan
count is surfaced so the CPU model can charge it (§3.2's concern that
"searching the queue ... [is] costly in terms of CPU").
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.net.packet import Packet
from repro.net.segment import Segment


class InsertResult:
    """Outcome of one :meth:`OfoQueue.insert`.

    Each queue owns a single instance that :meth:`OfoQueue.insert`
    overwrites and returns — one insert per packet makes this the stack's
    highest-frequency allocation otherwise.  Read it before the next
    insert on the same queue.
    """

    __slots__ = ("scanned", "merged", "duplicate")

    def __init__(self, scanned: int = 0, merged: bool = False,
                 duplicate: bool = False):
        #: Nodes examined while locating the insert position.
        self.scanned = scanned
        #: True if the packet merged into an existing node (vs new node).
        self.merged = merged
        #: True if the packet's bytes were already present — caller should
        #: pass the duplicate up for TCP's dupACK machinery, not buffer it.
        self.duplicate = duplicate


class OfoQueue:
    """Sorted, non-overlapping runs of buffered packets for one flow."""

    __slots__ = ("nodes", "max_payload", "_result")

    def __init__(self, max_payload: Optional[int] = None):
        self.nodes: List[Segment] = []
        self.max_payload = max_payload
        self._result = InsertResult()

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[Segment]:
        return iter(self.nodes)

    def __bool__(self) -> bool:
        return bool(self.nodes)

    @property
    def head(self) -> Optional[Segment]:
        """The lowest-sequence run, or None when empty."""
        return self.nodes[0] if self.nodes else None

    @property
    def buffered_bytes(self) -> int:
        """Total payload bytes currently buffered."""
        return sum(node.payload_len for node in self.nodes)

    def insert(self, packet: Packet) -> InsertResult:
        """Place ``packet`` into the queue, merging where possible.

        Arrivals are nearly in order, so the tail is tried first.  A
        straggler's position is a binary search (keeps the simulation fast);
        merges are slot reads and stores either way.  The *reported* scan
        count models the kernel's doubly-linked list walked from whichever
        end is closer — in-order arrivals touch the tail (0 nodes passed),
        late stragglers re-enter near the head, so both common cases cost
        O(1) rather than O(queue length).
        """
        nodes = self.nodes
        result = self._result
        seq = packet.seq
        if not nodes or seq >= nodes[-1].seq:
            result.scanned = 0
            result.merged = result.duplicate = False
            if nodes:
                tail = nodes[-1]
                if seq < tail.end_seq:
                    # Overlaps buffered bytes: a duplicate/overlapping
                    # retransmission.  Never buffer it twice.
                    result.duplicate = True
                    return result
                payload = tail._payload + packet.payload_len
                if (seq == tail.end_seq and not tail._closed
                        and packet.sig == tail.sig
                        and (self.max_payload is None
                             or payload <= self.max_payload)):
                    # Segment.can_append + Segment.append on the tail run.
                    tail.packets.append(packet)
                    tail.end_seq = seq + packet.payload_len
                    tail.mtus += 1
                    tail._payload = payload
                    tail._closed = packet.forces_flush
                    if packet.sent_at < tail.first_sent_at:
                        tail.first_sent_at = packet.sent_at
                    result.merged = True
                    return result
            nodes.append(Segment([packet]))
            return result

        # A straggler: idx = number of nodes with node.seq <= packet.seq.
        lo, hi = 0, len(nodes) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if nodes[mid].seq <= seq:
                lo = mid + 1
            else:
                hi = mid
        idx = lo
        result.scanned = min(len(nodes) - idx, idx + 1)
        result.merged = result.duplicate = False

        pred = nodes[idx - 1] if idx > 0 else None
        succ = nodes[idx]
        payload_len = packet.payload_len
        end_seq = seq + payload_len
        if (pred is not None and seq < pred.end_seq) or end_seq > succ.seq:
            result.duplicate = True
            return result

        max_payload = self.max_payload
        if (pred is not None and seq == pred.end_seq and not pred._closed
                and packet.sig == pred.sig
                and (max_payload is None
                     or pred._payload + payload_len <= max_payload)):
            # Segment.append onto the predecessor run.
            pred.packets.append(packet)
            pred.end_seq = end_seq
            pred.mtus += 1
            pred._payload += payload_len
            pred._closed = closed = packet.forces_flush
            if packet.sent_at < pred.first_sent_at:
                pred.first_sent_at = packet.sent_at
            # Appending may have closed the gap to the successor.
            if (succ.seq == end_seq and not closed and succ.sig == pred.sig
                    and (max_payload is None
                         or pred._payload + succ._payload <= max_payload)):
                pred.extend(succ)
                del nodes[idx]
            result.merged = True
            return result

        if succ.can_prepend(packet, max_payload):
            succ.prepend(packet)
            result.merged = True
            return result

        nodes.insert(idx, Segment([packet]))
        return result

    def pop_head(self) -> Segment:
        """Remove and return the lowest-sequence run."""
        return self.nodes.pop(0)

    def pop_all(self) -> List[Segment]:
        """Drain the queue, returning runs in sequence order."""
        drained = self.nodes
        self.nodes = []
        return drained

    def pop_inseq_run(self, seq_next: int) -> List[Segment]:
        """Pop the maximal chain of runs forming in-order data at ``seq_next``.

        Returns the (possibly empty) list of runs whose bytes are contiguous
        starting exactly at ``seq_next``.  Runs stay separate segments when
        they could not merge (header mismatch) — they are still in-order.
        """
        popped: List[Segment] = []
        expect = seq_next
        while self.nodes and self.nodes[0].seq == expect:
            node = self.nodes.pop(0)
            popped.append(node)
            expect = node.end_seq
        return popped
