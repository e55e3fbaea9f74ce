"""TCP Segmentation Offload at the sender.

The TCP stack hands the NIC bursts of up to 64 KB ("45 MTU-sized packets",
§2.2); the NIC cuts them into MSS packets back-to-back on the wire.  This is
the source of the traffic burstiness Juggler exploits (§4.3): a flow is only
*active* for the duration of a TSO burst's flight, then idle until the next
burst.  Per-TSO load balancing (Presto) sprays these bursts as units.
"""

from __future__ import annotations

from typing import List, Optional

from repro.net.addr import FiveTuple
from repro.net.constants import MSS, MAX_TSO_PAYLOAD, PRIORITY_LOW
from repro.net.flags import TcpFlags
from repro.net.packet import Packet


def segment_tso_burst(
    flow: FiveTuple,
    seq: int,
    nbytes: int,
    *,
    sent_at: int = 0,
    priority: int = PRIORITY_LOW,
    options: tuple = (),
    push_last: bool = True,
    is_retransmission: bool = False,
    tso_id: Optional[int] = None,
) -> List[Packet]:
    """Cut ``nbytes`` starting at ``seq`` into MSS-sized wire packets.

    Mirrors NIC TSO: every packet carries the same headers; the final packet
    of the burst gets PSH when ``push_last`` (Linux sets PSH on the last
    segment of a write so the receiver delivers promptly).

    ``nbytes`` may exceed ``MAX_TSO_PAYLOAD``; the caller (TCP sender) is
    expected to have already limited burst size, but we clamp defensively.

    ``tso_id`` is the caller's burst number, stamped on every packet.  It
    only has to be unique within the flow (per-TSO routing hashes
    ``(flow, tso_id)``), so the sender counts its own bursts: a process-wide
    counter made a cell's paths depend on what ran before it.
    """
    if nbytes <= 0:
        raise ValueError(f"TSO burst must carry payload, got {nbytes}")
    nbytes = min(nbytes, MAX_TSO_PAYLOAD)

    packets: List[Packet] = []
    offset = 0
    while offset < nbytes:
        chunk = min(MSS, nbytes - offset)
        last = offset + chunk >= nbytes
        flags = TcpFlags.ACK
        if last and push_last:
            flags |= TcpFlags.PSH
        packets.append(
            Packet(
                flow,
                seq + offset,
                chunk,
                flags=flags,
                options=options,
                priority=priority,
                tso_id=tso_id,
                sent_at=sent_at,
                is_retransmission=is_retransmission,
            )
        )
        offset += chunk
    return packets
