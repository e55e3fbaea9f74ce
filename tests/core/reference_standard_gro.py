"""The per-packet path this tree's ``StandardGRO`` replaced, kept as the
reference ``test_standard_equivalence.py`` drives it against.

``receive`` is the parent's body, verbatim: the merge goes through
``Segment.can_append`` / ``append`` and the flush tests through the
``closed`` / ``payload_len`` properties and ``_flush``; ``receive_batch`` is
``GroEngine``'s loop over ``receive``.  ``poll_complete``, ``flush_all`` and
``_flush`` are inherited.
"""

from repro.core.base import GroEngine
from repro.core.flush import FlushReason
from repro.core.standard_gro import StandardGRO
from repro.net.constants import MSS
from repro.net.segment import Segment


class ReferenceStandardGRO(StandardGRO):
    receive_batch = GroEngine.receive_batch

    def receive(self, packet, now):
        if packet.payload_len == 0:
            self._passthrough(packet, now)
            return
        self.stats.packets += 1

        held = self._batch.get(packet.flow)
        if held is not None:
            if held.can_append(packet, self.max_segment_bytes):
                held.append(packet)
                self.stats.merges += 1
                if held.closed:
                    self._flush(packet.flow, FlushReason.FLAGS, now)
                elif held.payload_len + MSS > self.max_segment_bytes:
                    self._flush(packet.flow, FlushReason.SEGMENT_FULL, now)
                return
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
