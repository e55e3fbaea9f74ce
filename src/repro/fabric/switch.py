"""An output-queued switch with direct routes and load-balanced uplinks."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.fabric.link import QueuedLink
from repro.fabric.routing import EcmpRouting, RoutingPolicy
from repro.net.packet import Packet


class Switch:
    """Forwards by destination: directly-attached hosts win, else an uplink.

    A ToR registers its local hosts as direct routes and its spine links as
    uplinks; a spine registers every host via the downlink toward the host's
    ToR.  The uplink-selection policy is the experiment's load-balancing
    granularity knob (Figure 20).
    """

    def __init__(self, name: str = "switch",
                 policy: Optional[RoutingPolicy] = None,
                 engine=None):
        self.name = name
        self.policy: RoutingPolicy = policy if policy is not None else EcmpRouting()
        #: Needed only by time-aware policies (flowlet/flowcut switching).
        self.engine = engine
        #: The policy's clock feed, resolved once: policy and engine are
        #: fixed at construction.  None for time-blind policies.
        self._observe = (self.policy.observe if engine is not None
                         and getattr(self.policy, "wants_time", False)
                         else None)
        self._direct: Dict[int, QueuedLink] = {}
        self.uplinks: List[QueuedLink] = []
        self.detector = None
        #: Packets with no matching route (should stay zero in experiments).
        self.unroutable = 0

    @property
    def detector(self):
        """Reordering telemetry on the host-bound path (repro.fabric.detector)
        or None, which is free per packet.  Setting it binds ``observe``."""
        return self._detector

    @detector.setter
    def detector(self, detector) -> None:
        self._detector = detector
        self._detector_observe = (detector.observe if detector is not None
                                  else None)

    def add_route(self, dst: int, link: QueuedLink) -> None:
        """Route packets destined for host ``dst`` out of ``link``."""
        self._direct[dst] = link

    def add_uplink(self, link: QueuedLink) -> None:
        """Register a load-balanced uplink for non-local destinations.

        Congestion-aware policies (flowcut switching) get sight of the
        uplink queues via ``bind_links`` as they are registered.
        """
        self.uplinks.append(link)
        bind = getattr(self.policy, "bind_links", None)
        if bind is not None:
            bind(self.uplinks)

    def attach_detector(self, detector) -> None:
        """Observe host-bound data packets with ``detector`` (= assigning it)."""
        self.detector = detector

    def direct_links(self) -> List[QueuedLink]:
        """The registered direct (host-facing) links, in route order."""
        return list(self._direct.values())

    def receive(self, packet: Packet) -> None:
        """Forward one packet."""
        direct = self._direct.get(packet.flow.dst)
        if direct is not None:
            observe = self._detector_observe
            if observe is not None and packet.payload_len > 0:
                seq = packet.seq
                observe(packet.flow, seq, seq + packet.payload_len,
                        packet.payload_len)
            direct.enqueue(packet)
            return
        if not self.uplinks:
            self.unroutable += 1
            return
        if self._observe is not None:
            self._observe(self.engine.now)
        index = self.policy.choose(packet, len(self.uplinks))
        packet.path_id = index
        self.uplinks[index].enqueue(packet)
