"""Calibrated per-operation CPU costs.

Costs are nanoseconds of core time per operation, anchored on the *vanilla
kernel, in-order traffic, 20 Gb/s into one RX queue* point of Figure 9 (the
paper's bars: RX core ≈ 45%, application core ≈ 60%).  They overshoot it:
``juggler-repro fig09``'s 1-flow ECMP vanilla row reads RX core 65.2% and
application core 65.4%.  Every other number is emergent from them.

Where the calibration anchors come from:

* 20 Gb/s of MSS packets ≈ 1.66 Mpps; with full 64 KB GRO batching that is
  ≈ 38 k segments/s (44 MTUs per segment).
* RX core work is dominated by per-packet driver+GRO handling; app core work
  by per-byte copy to userspace plus per-segment TCP/socket traversal.
* Under reordering, GRO batching collapses to ~3 MTUs/segment — the paper's
  "15 times more segments" — multiplying per-segment work by ~15× and
  saturating the application core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.net.segment import BatchingMode

if TYPE_CHECKING:
    from repro.core.stats import GroStats


@dataclass(frozen=True)
class CostTable:
    """Nanoseconds of CPU time per operation."""

    #: Driver + NAPI work per wire packet (DMA map, descriptor, skb alloc).
    rx_per_packet: float = 220.0
    #: GRO flow lookup + header inspection per packet.
    gro_per_packet: float = 60.0
    #: Appending one packet to a frags[] segment (no cache miss: payload
    #: pages are not touched, only the frag descriptor).
    gro_merge_frag: float = 25.0
    #: Chaining one sk_buff onto a linked-list segment.  Dominated by the
    #: cache miss on the chained skb's header (Figure 3 right / §3.1).
    gro_merge_chain: float = 180.0
    #: Scanning one OOO-queue node while searching the insert position.
    gro_node_scan: float = 30.0
    #: Pushing one merged segment out of GRO into the netfilter/IP path
    #: (charged on the RX core).
    rx_per_segment: float = 450.0
    #: Fixed cost of one NAPI poll invocation (irq, budget bookkeeping).
    rx_per_poll: float = 1500.0
    #: TCP/socket-layer traversal per delivered segment (charged on the
    #: application core: tcp_rcv, socket wakeup, syscall amortisation).
    app_per_segment: float = 2300.0
    #: Copy cost per payload byte (skb → user buffer).
    app_per_byte: float = 0.19
    #: Building and sending one ACK.
    app_per_ack: float = 900.0
    #: Extra per-segment cost when the segment arrived as a linked-list
    #: chain: the app-side copy walks the chain, one miss per element.
    app_per_chain_element: float = 140.0
    #: TCP receiver out-of-order handling per OOO segment (queue insert,
    #: SACK bookkeeping, immediate dupACK).
    app_per_ooo_segment: float = 1200.0

    def rx_busy_ns(self, stats: GroStats, mode: BatchingMode) -> float:
        """RX-core nanoseconds for the work one GRO engine's ``stats``
        count: driver and GRO handling per packet (pure ACKs included), a
        merge per packet merged (chaining costs more than a frag append),
        each OOO-queue node scanned, each segment pushed up, each poll."""
        merge = (self.gro_merge_chain if mode is BatchingMode.LINKED_LIST
                 else self.gro_merge_frag)
        return ((stats.packets + stats.passthrough_packets)
                * (self.rx_per_packet + self.gro_per_packet)
                + stats.merges * merge
                + stats.nodes_scanned * self.gro_node_scan
                + stats.segments * self.rx_per_segment
                + stats.polls * self.rx_per_poll)


#: The cost table all experiments use unless they explicitly override it.
DEFAULT_COSTS = CostTable()
