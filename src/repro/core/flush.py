"""Flush reasons — Table 2 of the paper, plus reproduction bookkeeping.

Every segment delivered up the stack is tagged with why it was flushed; the
stats collectors aggregate these to reproduce the paper's batching and
segment-count analyses.
"""

from __future__ import annotations

import enum


class FlushReason(enum.Enum):
    """Why a segment left the GRO layer (Table 2 + engine-internal causes)."""

    #: Packet sequence number is before ``seq_next`` — likely retransmission.
    RETRANSMISSION = "retransmission"
    #: In-sequence segment reached the 64 KB limit.
    SEGMENT_FULL = "segment_full"
    #: Packet carried PUSH/URGENT/SYN/FIN/RST — urgent delivery required.
    FLAGS = "flags"
    #: Next packet differs in TCP options / CE marks — cannot merge.
    UNMERGEABLE = "unmergeable"
    #: ``inseq_timeout`` expired — don't delay in-sequence packets too much.
    INSEQ_TIMEOUT = "inseq_timeout"
    #: ``ofo_timeout`` expired — the missing packet is likely lost.
    OFO_TIMEOUT = "ofo_timeout"
    #: Flow evicted to make room in gro_table (§4.3).
    EVICTION = "eviction"
    #: Standard GRO's flush-everything at polling completion (§3.1).
    POLL_END = "poll_end"
    #: Standard GRO only: the next packet was not in sequence, terminating
    #: the batch (the reordering failure mode Juggler fixes).
    OUT_OF_SEQUENCE = "out_of_sequence"
    #: Zero-payload ACKs and other unbatchable packets passed straight up.
    PASSTHROUGH = "passthrough"
    #: Payload bytes already buffered — duplicate delivered up for TCP.
    DUPLICATE = "duplicate"
    #: End-of-experiment drain requested by the harness.
    SHUTDOWN = "shutdown"
