"""The per-packet path this tree's ``JugglerGRO`` replaced, kept as the
reference ``test_receive_equivalence.py`` drives it against.

``receive_batch`` dispatches to ``_receive_established`` / ``_buffer_packet``
and then calls ``_event_checks`` -> ``_after_flush_transitions``, all written
against the ``OfoQueue.head`` / ``FlowEntry.has_hole`` / ``Segment.payload_len``
/ ``closed`` properties; ``OfoQueue.insert`` binary-searches every packet;
``_deliver_segment`` books its statistics through ``GroEngine`` and
``GroStats.record_delivery``.  The bodies are the parent's, verbatim but for
``InsertResult._set`` (gone from the live queue), which ``_result`` below
stands in for; the
helpers they share with the live engine (``_admit_new_flow``, ``_flush_head``,
``_normalize_queue``, ``_maybe_fill_hole``, the timeout and eviction paths)
are inherited.
"""

from repro.core.base import GroEngine
from repro.core.flush import FlushReason
from repro.core.juggler import JugglerGRO
from repro.core.ofo_queue import OfoQueue
from repro.core.phases import Phase
from repro.net.constants import MSS
from repro.net.segment import BatchingMode, Segment


def _result(queue, scanned, merged, duplicate):
    result = queue._result
    result.scanned, result.merged, result.duplicate = scanned, merged, duplicate
    return result


class ReferenceOfoQueue(OfoQueue):
    __slots__ = ()

    def insert(self, packet):
        nodes = self.nodes
        # idx = number of nodes with node.seq <= packet.seq.
        lo, hi = 0, len(nodes)
        while lo < hi:
            mid = (lo + hi) // 2
            if nodes[mid].seq <= packet.seq:
                lo = mid + 1
            else:
                hi = mid
        idx = lo
        scanned = min(len(nodes) - idx, idx + 1) if nodes else 0

        pred = nodes[idx - 1] if idx > 0 else None
        succ = nodes[idx] if idx < len(nodes) else None

        if pred is not None and packet.seq < pred.end_seq:
            return _result(self, scanned, merged=False, duplicate=True)
        if succ is not None and packet.end_seq > succ.seq:
            return _result(self, scanned, merged=False, duplicate=True)

        if pred is not None and pred.can_append(packet, self.max_payload):
            pred.append(packet)
            if succ is not None and pred.can_extend(succ, self.max_payload):
                pred.extend(succ)
                nodes.pop(idx)
            return _result(self, scanned, merged=True, duplicate=False)

        if succ is not None and succ.can_prepend(packet, self.max_payload):
            succ.prepend(packet)
            return _result(self, scanned, merged=True, duplicate=False)

        nodes.insert(idx, Segment([packet]))
        return _result(self, scanned, merged=False, duplicate=False)


class ReferenceJugglerGRO(JugglerGRO):
    def _admit_new_flow(self, packet, now):
        entry = super()._admit_new_flow(packet, now)
        entry.ofo = ReferenceOfoQueue(self.config.max_segment_bytes)
        return entry

    def receive_batch(self, packets, now):
        accountant = self.accountant
        tracer = self.tracer
        sanitizer = self.sanitizer
        stats = self.stats
        lookup = self.table.lookup
        protocols = self.config.protocols
        buildup = Phase.BUILD_UP
        for packet in packets:
            if accountant is not None:
                accountant.on_rx_packet()
                accountant.on_gro_packet()
            if tracer is not None:
                tracer.packet_rx(now, packet.flow, packet.seq,
                                 packet.end_seq, packet.payload_len)
            if (packet.payload_len == 0
                    or packet.flow.proto not in protocols):
                self._passthrough(packet, now)
                continue
            stats.packets += 1
            entry = lookup(packet.flow)
            if entry is None:
                entry = self._admit_new_flow(packet, now)
            entry.last_seen = now
            if entry.phase is buildup:
                entry.learn_seq_next(packet.seq)
                self._buffer_packet(entry, packet, now)
            else:
                self._receive_established(entry, packet, now)
            self._event_checks(entry, now)
            if sanitizer is not None:
                sanitizer.check_flow(entry)

    def _receive_established(self, entry, packet, now):
        assert entry.seq_next is not None
        if packet.end_seq <= entry.seq_next:
            self._deliver_packet(packet, FlushReason.RETRANSMISSION, now)
            self._maybe_fill_hole(entry, packet, now)
            return

        if packet.seq < entry.seq_next:
            self._deliver_packet(packet, FlushReason.RETRANSMISSION, now)
            self._maybe_fill_hole(entry, packet, now)
            entry.advance_seq_next(packet.end_seq)
            self._normalize_queue(entry, now)
            entry.refresh_hole_state(now)
            return

        if entry.phase is Phase.POST_MERGE:
            self.table.move(entry, Phase.ACTIVE_MERGE, now)
        self._buffer_packet(entry, packet, now)

    def _buffer_packet(self, entry, packet, now):
        result = entry.ofo.insert(packet)
        self.stats.nodes_scanned += result.scanned
        accountant = self.accountant
        if accountant is not None:
            accountant.on_node_scan(result.scanned)
        if result.duplicate:
            self.stats.duplicates += 1
            self._deliver_packet(packet, FlushReason.DUPLICATE, now)
            return
        if result.merged:
            self.stats.merges += 1
            if accountant is not None:
                accountant.on_merge(BatchingMode.FRAGS_ARRAY)
            if self.tracer is not None:
                self.tracer.merge(now, entry.key, packet.seq, packet.end_seq,
                                  result.scanned)
        entry.refresh_hole_state(now)
        if self.sanitizer is not None:
            self.sanitizer.check_ofo(entry)

    def _event_checks(self, entry, now):
        while True:
            head = entry.ofo.head
            if head is None or head.seq != entry.seq_next:
                break
            if head.payload_len + MSS > self.config.max_segment_bytes:
                reason = FlushReason.SEGMENT_FULL
            elif head.closed:
                reason = FlushReason.FLAGS
            elif len(entry.ofo.nodes) > 1 and entry.ofo.nodes[1].seq == head.end_seq:
                reason = FlushReason.UNMERGEABLE
            else:
                break
            self._flush_head(entry, reason, now)
        self._after_flush_transitions(entry, now)

    def _after_flush_transitions(self, entry, now):
        entry.refresh_hole_state(now)
        if not entry.ofo and entry.phase is Phase.ACTIVE_MERGE:
            self.table.move(entry, Phase.POST_MERGE, now)

    def _deliver_segment(self, segment, reason, now):
        if self.sanitizer is not None:
            self.sanitizer.check_flush_reason(segment.flow, reason)
        GroEngine._deliver_segment(self, segment, reason, now)
