"""Shared harness for the core-engine tests."""

from __future__ import annotations

from typing import List, Tuple

from repro.core.config import JugglerConfig
from repro.core.flush import FlushReason
from repro.core.juggler import JugglerGRO
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet
from repro.net.segment import Segment

FLOW = FiveTuple(1, 2, 1000, 80)
FLOW_B = FiveTuple(3, 2, 2000, 80)

#: (segment, reason, time) tuples recorded by the harness.
DeliveryLog = List[Tuple[Segment, FlushReason, int]]


class JugglerHarness:
    """A JugglerGRO instance with every delivery (and its reason) recorded."""

    def __init__(self, config: JugglerConfig):
        self.log: DeliveryLog = []
        self.engine = JugglerGRO(self._sink, config)
        original = self.engine._deliver_segment

        def recording(segment, reason, now):
            self.log.append((segment, reason, now))
            original(segment, reason, now)

        self.engine._deliver_segment = recording

    def _sink(self, segment) -> None:
        pass

    def receive(self, packet, now=0):
        self.engine.receive(packet, now)

    def delivered_ranges(self):
        return [(s.seq, s.end_seq) for s, _, _ in self.log]

    def reasons(self):
        return [r for _, r, _ in self.log]

    def entry(self, flow=FLOW):
        return self.engine.table.lookup(flow)


def pkt(seq, size=MSS, flow=FLOW, **kw):
    return Packet(flow, seq, size, **kw)
