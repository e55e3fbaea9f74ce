"""The Packet — the simulation's sk_buff as it arrives from the wire."""

from __future__ import annotations

import itertools
from typing import List, Optional

from repro.net.addr import FiveTuple
from repro.net.constants import PRIORITY_LOW, wire_bytes
from repro.net.flags import TcpFlags

_packet_ids = itertools.count()


class Packet:
    """One MTU-or-smaller TCP/IP packet.

    Carries exactly the header state the GRO layer inspects (five-tuple,
    sequence number, flags, options signature, CE mark) plus bookkeeping the
    harness uses to measure reordering (``pid``, ``sent_at``, ``tso_id``).
    """

    __slots__ = (
        "flow",
        "seq",
        "payload_len",
        "flags",
        "ack",
        "options",
        "ce",
        "priority",
        "rwnd",
        "sack",
        "ce_bytes",
        "pid",
        "tso_id",
        "sent_at",
        "received_at",
        "is_retransmission",
        "path_id",
        "sig",
        "wire_len",
        "forces_flush",
        "corrupt",
        "origin",
    )

    def __init__(
        self,
        flow: FiveTuple,
        seq: int,
        payload_len: int,
        *,
        flags: TcpFlags = TcpFlags.ACK,
        ack: int = 0,
        options: tuple = (),
        ce: bool = False,
        priority: int = PRIORITY_LOW,
        tso_id: Optional[int] = None,
        sent_at: int = 0,
        is_retransmission: bool = False,
        rwnd: Optional[int] = None,
        sack: tuple = (),
    ):
        self.flow = flow
        self.seq = seq
        self.payload_len = payload_len
        self.flags = flags
        self.ack = ack
        self.rwnd = rwnd
        self.sack = sack
        #: On ACKs: payload bytes the receiver saw CE-marked since its last
        #: ACK (DCTCP-style precise congestion feedback).
        self.ce_bytes = 0
        self.options = options
        self.ce = ce
        self.priority = priority
        self.pid = next(_packet_ids)
        self.tso_id = tso_id
        self.sent_at = sent_at
        self.received_at = 0
        self.is_retransmission = is_retransmission
        self.path_id = 0
        #: Payload damaged in flight; the NIC's checksum verification drops
        #: such frames at the ring (see repro.faults and RxQueue.enqueue).
        self.corrupt = False
        #: The PacketPool this packet must be released to when it dies at a
        #: terminal drop site (None for unpooled packets).
        self.origin = None
        # GRO-hot-path fields, precomputed once here instead of per merge
        # check (IntFlag arithmetic is far too slow for a per-probe cost).
        f = int(flags)
        #: The merge signature: header fields that must match for GRO to
        #: merge two packets.  Per Table 2, a packet that "differs from [the]
        #: in-sequence segment in TCP options, CE marks, etc" forces a flush.
        self.sig = (options, ce, f & ~0x08)  # ~PSH
        #: Bytes occupied on the wire, including all framing overhead (the
        #: links read it several times per hop; ``payload_len`` never changes
        #: after construction).
        self.wire_len = wire_bytes(payload_len)
        self.forces_flush = (f & 0x2F) != 0  # PSH|URG|SYN|FIN|RST

    def reset(
        self,
        flow: FiveTuple,
        seq: int,
        payload_len: int,
        *,
        flags: TcpFlags = TcpFlags.ACK,
        ack: int = 0,
        options: tuple = (),
        ce: bool = False,
        priority: int = PRIORITY_LOW,
        tso_id: Optional[int] = None,
        sent_at: int = 0,
        is_retransmission: bool = False,
        rwnd: Optional[int] = None,
        sack: tuple = (),
    ) -> "Packet":
        """Reinitialise a recycled packet (see :class:`repro.net.pool.PacketPool`).

        Identical to ``__init__`` except it runs on an existing instance; a
        fresh ``pid`` is assigned so reordering bookkeeping never confuses
        two wire packets that shared an object.
        """
        self.__init__(flow, seq, payload_len, flags=flags, ack=ack,
                      options=options, ce=ce, priority=priority,
                      tso_id=tso_id, sent_at=sent_at,
                      is_retransmission=is_retransmission, rwnd=rwnd,
                      sack=sack)
        return self

    def burst(self, count: int) -> List[Packet]:
        """This packet followed by the ``count - 1`` that TSO cuts behind it.

        A TSO burst is one header and N byte ranges: each further packet
        covers the next ``payload_len`` bytes and draws the next pid; every
        other slot is this packet's value, copied rather than derived again
        (one store per name in ``__slots__``).  The burst shares one ``sig``
        tuple, which is safe because :meth:`mark_ce` rebinds it.
        """
        new = Packet.__new__
        flow, seq, step, flags = self.flow, self.seq, self.payload_len, self.flags
        ack, rwnd, sack, ce_bytes = self.ack, self.rwnd, self.sack, self.ce_bytes
        options, ce, priority = self.options, self.ce, self.priority
        tso_id, sent_at, received_at = self.tso_id, self.sent_at, self.received_at
        is_retransmission, path_id = self.is_retransmission, self.path_id
        corrupt, origin = self.corrupt, self.origin
        sig, wire_len, forces_flush = self.sig, self.wire_len, self.forces_flush
        packets = [self]
        append = packets.append
        for pid in itertools.islice(_packet_ids, count - 1):
            seq += step
            packet = new(Packet)
            packet.flow = flow
            packet.seq = seq
            packet.payload_len = step
            packet.flags = flags
            packet.ack = ack
            packet.rwnd = rwnd
            packet.sack = sack
            packet.ce_bytes = ce_bytes
            packet.options = options
            packet.ce = ce
            packet.priority = priority
            packet.pid = pid
            packet.tso_id = tso_id
            packet.sent_at = sent_at
            packet.received_at = received_at
            packet.is_retransmission = is_retransmission
            packet.path_id = path_id
            packet.corrupt = corrupt
            packet.origin = origin
            packet.sig = sig
            packet.wire_len = wire_len
            packet.forces_flush = forces_flush
            append(packet)
        return packets

    def mark_ce(self) -> None:
        """Set the ECN CE codepoint (done by congested links in flight).

        Must go through this method: the merge signature includes the CE
        mark, so the precomputed ``sig`` has to change with it.  It rebinds
        ``sig`` rather than mutating it: the packets of one TSO burst share
        the tuple (see :meth:`burst`).
        """
        self.ce = True
        self.sig = (self.options, True, self.sig[2])

    @property
    def end_seq(self) -> int:
        """Sequence number of the byte just past this packet's payload."""
        return self.seq + self.payload_len

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Packet {self.flow} seq={self.seq}+{self.payload_len} "
            f"flags={self.flags!r} prio={self.priority}>"
        )
