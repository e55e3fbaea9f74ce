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
from repro.net.constants import MSS, MAX_TSO_PAYLOAD, PRIORITY_LOW, wire_bytes
from repro.net.flags import TcpFlags
from repro.net.packet import Packet

_ACK_PSH = TcpFlags.ACK | TcpFlags.PSH


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

    Mirrors NIC TSO: the burst is one header and N byte ranges.  Only the
    first packet goes through the constructor; the rest are stamped from it
    (:meth:`Packet.burst`), so within a burst packets differ in ``seq`` and
    ``pid`` alone — plus, on the last one, ``payload_len``/``wire_len`` when
    it is a runt and PSH when ``push_last`` (Linux sets PSH on the last
    segment of a write so the receiver delivers promptly).  ``flow`` is the
    same object and ``tso_id`` the same number on every packet.

    ``nbytes`` above ``MAX_TSO_PAYLOAD`` is clamped, silently: a defence
    only, since the caller would book bytes that never reach the wire —
    ``TcpSender`` caps its bursts at ``MAX_TSO_PAYLOAD``.

    ``tso_id`` is the caller's burst number, stamped on every packet.  It
    only has to be unique within the flow (per-TSO routing hashes
    ``(flow, tso_id)``), so the sender counts its own bursts: a process-wide
    counter made a cell's paths depend on what ran before it.
    """
    if nbytes <= 0:
        raise ValueError(f"TSO burst must carry payload, got {nbytes}")
    nbytes = min(nbytes, MAX_TSO_PAYLOAD)
    count = -(-nbytes // MSS)
    head = Packet(
        flow, seq, min(MSS, nbytes),
        flags=_ACK_PSH if push_last and count == 1 else TcpFlags.ACK,
        options=options, priority=priority, tso_id=tso_id, sent_at=sent_at,
        is_retransmission=is_retransmission,
    )
    if count == 1:
        return [head]
    packets = head.burst(count)
    last = packets[-1]
    runt = nbytes - (count - 1) * MSS
    if runt != MSS:
        last.payload_len = runt
        last.wire_len = wire_bytes(runt)
    if push_last:
        # PSH is masked out of ``sig``, so that stays the burst's.
        last.flags = _ACK_PSH
        last.forces_flush = True
    return packets
