"""Packet-level model of the wire and of sk_buffs.

This package is the reproduction's stand-in for what the kernel and NIC see:
five-tuples, TCP headers (the subset GRO inspects), MTU-sized packets, TSO
segmentation at the sender, and merged receive segments (the ``frags[]``
array vs linked-list distinction from Figure 3 of the paper).
"""

from repro.net.constants import (
    ETHERNET_OVERHEAD,
    MTU,
    MSS,
    HEADER_LEN,
    MAX_GRO_SEGMENT,
    MAX_TSO_PAYLOAD,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    wire_bytes,
    transmit_time_ns,
)
from repro.net.addr import FiveTuple
from repro.net.flags import TcpFlags
from repro.net.packet import Packet
from repro.net.segment import Segment, BatchingMode
from repro.net.tso import segment_tso_burst

__all__ = [
    "ETHERNET_OVERHEAD",
    "MTU",
    "MSS",
    "HEADER_LEN",
    "MAX_GRO_SEGMENT",
    "MAX_TSO_PAYLOAD",
    "PRIORITY_HIGH",
    "PRIORITY_LOW",
    "wire_bytes",
    "transmit_time_ns",
    "FiveTuple",
    "TcpFlags",
    "Packet",
    "Segment",
    "BatchingMode",
    "segment_tso_burst",
]
