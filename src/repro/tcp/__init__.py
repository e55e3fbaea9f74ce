"""A Reno-flavoured TCP model — the transport the reordering hurts.

The paper's vanilla-kernel pathology has two independent halves (§3.1):

1. *Protocol*: "the TCP stack treats mis-sequenced packets as a signal of
   packet loss due to an increased number of duplicate acknowledgements" —
   spurious fast retransmits collapse the congestion window.
2. *CPU*: the GRO batching collapse multiplies per-segment work ~15×,
   saturating the application core; the socket buffer then fills and the
   advertised window closes.

Both live here: the sender implements slow start / congestion avoidance /
3-dupACK fast retransmit / RTO, and the receiver generates one ACK per
delivered GRO segment (the paper's "15 times more ACKs"), buffers
out-of-order data, and advertises a window coupled to the application-core
drain rate.
"""
