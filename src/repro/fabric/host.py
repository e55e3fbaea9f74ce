"""An end host: NIC + GRO on the receive side, a TX port on the send side,
and a demultiplexer that hands delivered segments to registered transport
endpoints (TCP senders receive ACK segments, TCP receivers data segments).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.core.base import GroEngine
from repro.fabric.link import PacketSink
from repro.net.addr import FiveTuple
from repro.net.packet import Packet
from repro.net.segment import Segment
from repro.nic.nic import GroFactory, Nic, NicConfig
from repro.sim.engine import Engine
from repro.steer.policy import SteeringPolicy

if TYPE_CHECKING:
    from repro.cpu.core import CpuCore

SegmentHandler = Callable[[Segment], None]


class Host:
    """One server: wire in via the NIC/GRO path, wire out via the TX port."""

    def __init__(
        self,
        engine: Engine,
        host_id: int,
        gro_factory: GroFactory,
        *,
        nic_config: Optional[NicConfig] = None,
        name: Optional[str] = None,
        steering: Optional[SteeringPolicy] = None,
    ):
        self.engine = engine
        self.host_id = host_id
        self.name = name if name is not None else f"host{host_id}"
        self.nic = Nic(engine, self.deliver, gro_factory, nic_config,
                       name=self.name, steering=steering)
        #: Where transmitted packets go (the access link); set by the topology.
        self.tx: Optional[PacketSink] = None
        #: Application-core model; endpoints use it when present.
        self.app_core: Optional[CpuCore] = None
        self._handlers: Dict[FiveTuple, SegmentHandler] = {}
        #: Segments delivered with no registered endpoint.
        self.stray_segments = 0

    # -- wiring ---------------------------------------------------------------

    def attach_tx(self, sink: PacketSink) -> None:
        """Connect the host's transmit side to its access link."""
        self.tx = sink

    def register_handler(self, flow: FiveTuple, handler: SegmentHandler) -> None:
        """Route delivered segments of ``flow`` to a transport endpoint."""
        if flow in self._handlers:
            raise ValueError(f"{self.name}: handler already registered for {flow}")
        self._handlers[flow] = handler

    def unregister_handler(self, flow: FiveTuple) -> None:
        """Remove a transport endpoint's registration."""
        self._handlers.pop(flow, None)

    # -- data path --------------------------------------------------------------

    def receive(self, packet: Packet) -> None:
        """Entry from the wire — straight into the NIC."""
        self.nic.receive(packet)

    def deliver(self, segment: Segment) -> None:
        """Exit from GRO — dispatch to the endpoint that owns the flow."""
        handler = self._handlers.get(segment.flow)
        if handler is None:
            self.stray_segments += 1
            return
        handler(segment)

    def transmit(self, packet: Packet) -> None:
        """Send one packet toward the fabric."""
        if self.tx is None:
            raise RuntimeError(f"{self.name} has no TX link attached")
        self.tx.receive(packet)

    # -- introspection -----------------------------------------------------------

    @property
    def gro_engines(self) -> list[GroEngine]:
        """The per-RX-queue GRO instances (for stats collection)."""
        return [q.gro for q in self.nic.queues]

    def drain(self) -> None:
        """Teardown: flush rings and GRO state."""
        self.nic.drain()
