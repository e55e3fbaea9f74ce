"""The TCP receive side: reassembly, ACK generation, flow control.

Receives *segments* from GRO (not packets — that is the whole point of the
paper: how well GRO batched determines how much work lands here).  Each
delivered segment costs application-core time priced from the cost table;
when the host has an :class:`~repro.cpu.core.CpuCore` attached, processing
is serialised through it, so an overloaded core delays ACKs and closes the
advertised window — the vanilla-kernel throughput collapse of Figure 9.

Every delivered segment generates exactly one ACK, reproducing the paper's
observation that the vanilla stack under reordering "sends 15 times more
ACKs" (§5.1.1).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.cpu.costs import DEFAULT_COSTS
from repro.fabric.host import Host
from repro.net.addr import FiveTuple
from repro.net.constants import PRIORITY_HIGH
from repro.net.flags import TcpFlags
from repro.net.packet import Packet
from repro.net.ranges import merge_range
from repro.net.segment import BatchingMode, Segment
from repro.sim.engine import Engine
from repro.tcp.config import TcpConfig
from repro.trace import runtime as trace_runtime

#: Called with (new in-order watermark, now) whenever rcv_nxt advances.
BytesCallback = Callable[[int, int], None]


class TcpReceiver:
    """Reassembles one flow's byte stream and ACKs every GRO segment."""

    def __init__(
        self,
        engine: Engine,
        host: Host,
        flow: FiveTuple,
        config: Optional[TcpConfig] = None,
        on_bytes: Optional[BytesCallback] = None,
    ):
        self._engine = engine
        self._host = host
        self.flow = flow
        #: The five-tuple every ACK carries, built once.
        self._ack_flow = flow.reversed()
        self.config = config if config is not None else TcpConfig()
        self.on_bytes = on_bytes
        self.tracer = trace_runtime.current()
        host.register_handler(flow, self.on_segment)

        #: Next expected in-order byte.
        self.rcv_nxt = 0
        #: Out-of-order byte ranges beyond rcv_nxt, sorted and disjoint.
        self._ooo: List[Tuple[int, int]] = []
        #: Socket-buffer occupancy: bytes received but not yet consumed by
        #: the application (i.e. whose app-core job has not completed).
        self.occupancy = 0

        #: CE-marked payload bytes not yet echoed to the sender.
        self._pending_ce_bytes = 0

        # Counters.
        self.segments_received = 0
        self.ooo_segments = 0
        self.duplicate_segments = 0
        self.acks_sent = 0
        self.dupacks_sent = 0

    @property
    def advertised_window(self) -> int:
        """Receive window: buffer space not yet occupied."""
        return max(0, self.config.rx_buffer - self.occupancy)

    @property
    def ooo_buffered_bytes(self) -> int:
        """Bytes parked in the TCP out-of-order queue."""
        return sum(e - s for s, e in self._ooo)

    # -- segment arrival (from GRO) -------------------------------------------

    def on_segment(self, segment: Segment) -> None:
        """GRO delivered a segment: charge the app core, then process."""
        payload = segment._payload
        if payload == 0:
            return  # stray zero-payload packet; nothing to do
        self.occupancy += payload
        costs = DEFAULT_COSTS
        cost = (
            costs.app_per_segment
            + costs.app_per_byte * payload
            + costs.app_per_ack
        )
        if segment.mode is BatchingMode.LINKED_LIST:
            cost += costs.app_per_chain_element * segment.mtus
        if segment.seq != self.rcv_nxt:
            cost += costs.app_per_ooo_segment
        core = self._host.app_core
        if core is not None:
            core.submit(cost, self._process, segment)
        else:
            self._process(segment)

    def _process(self, segment: Segment) -> None:
        """TCP-layer handling, after the app core got to the segment."""
        payload = segment._payload
        self.occupancy -= payload
        self.segments_received += 1
        for packet in segment.packets:
            if packet.ce:  # echoed to the sender, DCTCP-style
                self._pending_ce_bytes += packet.payload_len
        advanced = False
        dsack = None
        if segment.in_order:
            ranges = ((segment.seq, segment.end_seq),)
            if segment.end_seq <= self.rcv_nxt:
                # Entirely old data: report it as a DSACK block so the
                # sender does not count this ACK toward fast retransmit.
                dsack = ranges[0]
        else:
            # Linked-list chains may hold disjoint packets; absorb each.
            ranges = [(p.seq, p.end_seq) for p in segment.packets]
        ooo = self._ooo
        for start, end in ranges:
            if end <= self.rcv_nxt:
                self.duplicate_segments += 1
            elif start > self.rcv_nxt:
                self.ooo_segments += 1
                merge_range(ooo, start, end)
            else:
                # In order (possibly partially duplicate at the front).
                self.rcv_nxt = end
                advanced = True
                # Pull any now-contiguous OOO ranges through.
                while ooo and ooo[0][0] <= self.rcv_nxt:
                    self.rcv_nxt = max(self.rcv_nxt, ooo.pop(0)[1])
        if advanced:
            if self.tracer is not None:
                self.tracer.tcp_delivery(self._engine.now, self.flow,
                                         self.rcv_nxt, payload)
            if self.on_bytes is not None:
                self.on_bytes(self.rcv_nxt, self._engine.now)
        else:
            self.dupacks_sent += 1
        self._send_ack(dsack)

    def _send_ack(self, dsack=None) -> None:
        """One cumulative ACK per delivered segment, with SACK blocks.

        A DSACK block (duplicate data report, RFC 2883) rides first when the
        triggering segment carried only already-received bytes.
        """
        blocks = tuple(self._ooo[:3])
        if dsack is not None:
            blocks = (dsack,) + blocks[:2]
        rwnd = self.config.rx_buffer - self.occupancy
        ack = Packet(
            self._ack_flow,
            seq=0,
            payload_len=0,
            flags=TcpFlags.ACK,
            ack=self.rcv_nxt,
            rwnd=rwnd if rwnd > 0 else 0,
            sack=blocks,
            priority=PRIORITY_HIGH,
            sent_at=self._engine.now,
        )
        ack.ce_bytes = self._pending_ce_bytes
        self._pending_ce_bytes = 0
        self.acks_sent += 1
        self._host.transmit(ack)

    def announce_window(self) -> None:
        """Send an unsolicited ACK advertising the current window.

        Real receivers do this when the application drains a socket buffer
        that had closed the window; without it a sender that saw rwnd == 0
        would sit on a persist timer the simulation does not model.  Used
        by the fault layer when a ``receiver_stall`` window clears.
        """
        self._send_ack()

    def close(self) -> None:
        """Unregister from the host (experiment teardown)."""
        self._host.unregister_handler(self.flow)
