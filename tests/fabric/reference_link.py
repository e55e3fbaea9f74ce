"""The three-method link this tree's ``QueuedLink`` replaced, kept as the
reference ``test_link_equivalence.py`` drives it against.

Every packet goes through the deque: ``enqueue`` appends and, on an idle
link, calls ``_transmit_next``; ``_tx_done`` posts the arrival and calls
``_transmit_next`` again.  Same constructor, same ``stats`` (minus the
per-priority dict nothing read), same attributes a fault window rewrites.
"""

from collections import deque

from repro.fabric.link import LinkStats
from repro.net.constants import transmit_time_ns
from repro.net.pool import release_terminal


class ReferenceLink:
    def __init__(self, engine, rate_gbps, sink, *, prop_delay_ns=500,
                 priorities=1, capacity_bytes=None, ecn_threshold_bytes=None):
        self._engine = engine
        self.rate_gbps = rate_gbps
        self.sink = sink
        self.prop_delay_ns = prop_delay_ns
        self.capacity_bytes = capacity_bytes
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self._queues = [deque() for _ in range(priorities)]
        self._queue_bytes = [0] * priorities
        self._queued_bytes = 0
        self._busy = False
        self.stats = LinkStats()

    def enqueue(self, packet):
        level = min(packet.priority, len(self._queues) - 1)
        wire_len = packet.wire_len
        if (
            self.capacity_bytes is not None
            and self._queue_bytes[level] + wire_len > self.capacity_bytes
        ):
            self.stats.drops += 1
            release_terminal(packet)
            return
        if (
            self.ecn_threshold_bytes is not None
            and packet.payload_len > 0
            and self._queue_bytes[level] > self.ecn_threshold_bytes
        ):
            packet.mark_ce()
            self.stats.ce_marked += 1
        self._queues[level].append(packet)
        self._queue_bytes[level] += wire_len
        self._queued_bytes += wire_len
        if self._queued_bytes > self.stats.max_queue_bytes:
            self.stats.max_queue_bytes = self._queued_bytes
        if not self._busy:
            self._transmit_next()

    def _transmit_next(self):
        for level, queue in enumerate(self._queues):
            if queue:
                packet = queue.popleft()
                break
        else:
            self._busy = False
            return
        self._busy = True
        wire_len = packet.wire_len
        self._queue_bytes[level] -= wire_len
        self._queued_bytes -= wire_len
        tx_ns = transmit_time_ns(packet.payload_len, self.rate_gbps)
        stats = self.stats
        stats.packets += 1
        stats.bytes += wire_len
        stats.busy_ns += tx_ns
        self._engine.post(tx_ns, self._tx_done, packet)

    def _tx_done(self, packet):
        self._engine.post(self.prop_delay_ns, self.sink.receive, packet)
        self._transmit_next()
