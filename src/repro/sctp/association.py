"""One SCTP-style association: message framing over sequenced chunks."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.fabric.host import Host
from repro.net.addr import FiveTuple
from repro.net.constants import MSS, PRIORITY_HIGH
from repro.net.flags import TcpFlags
from repro.net.packet import Packet
from repro.net.ranges import merge_range
from repro.net.segment import Segment
from repro.sim.engine import Engine
from repro.sim.timer import Timer
from repro.sim.time import MS

#: The IP protocol number SCTP traffic uses.
SCTP_PROTO = 132

#: Called with (message_index, completion_time) on each delivered message.
MessageCallback = Callable[[int, int], None]


class SctpSender:
    """Sends framed messages as MSS-sized sequenced chunks."""

    def __init__(
        self,
        engine: Engine,
        host: Host,
        flow: FiveTuple,
        *,
        window_bytes: int = 1 << 20,
        rto_ns: int = 2 * MS,
    ):
        if flow.proto != SCTP_PROTO:
            raise ValueError(f"SCTP association needs proto {SCTP_PROTO}, got {flow.proto}")
        self._engine = engine
        self._host = host
        self.flow = flow
        self.window_bytes = window_bytes
        self.rto_ns = rto_ns
        host.register_handler(flow.reversed(), self._on_sack_segment)

        self.snd_una = 0
        self.snd_nxt = 0
        self.data_target = 0
        #: Cumulative byte offsets where queued messages end.
        self.message_ends: List[int] = []
        self._rto_timer = Timer(engine, self._on_rto)
        self._gap_reports: Dict[Tuple[int, int], int] = {}
        self.messages_sent = 0
        self.retransmitted_chunks = 0
        self.rtos = 0

    def send_message(self, nbytes: int) -> int:
        """Queue one application message; returns its index."""
        if nbytes <= 0:
            raise ValueError(f"message must carry bytes, got {nbytes}")
        self.data_target += nbytes
        self.message_ends.append(self.data_target)
        index = self.messages_sent
        self.messages_sent += 1
        self._try_send()
        return index

    @property
    def flight_bytes(self) -> int:
        """Unacknowledged bytes."""
        return self.snd_nxt - self.snd_una

    def _try_send(self) -> None:
        while (self.snd_nxt < self.data_target
               and self.flight_bytes < self.window_bytes):
            chunk = min(MSS, self.data_target - self.snd_nxt)
            self._emit(self.snd_nxt, chunk)
            self.snd_nxt += chunk
        if self.flight_bytes > 0 and not self._rto_timer.armed:
            self._rto_timer.arm_after(self.rto_ns)

    def _emit(self, seq: int, nbytes: int, retransmission: bool = False) -> None:
        ends_message = seq + nbytes in self.message_ends or \
            seq + nbytes == self.data_target
        packet = Packet(
            self.flow,
            seq,
            nbytes,
            flags=(TcpFlags.ACK | TcpFlags.PSH) if ends_message
            else TcpFlags.ACK,
            sent_at=self._engine.now,
            is_retransmission=retransmission,
        )
        if retransmission:
            self.retransmitted_chunks += 1
        self._host.transmit(packet)

    def _on_sack_segment(self, segment: Segment) -> None:
        for packet in segment.packets:
            self._on_sack(packet)

    def _on_sack(self, packet: Packet) -> None:
        if packet.ack > self.snd_una:
            self.snd_una = packet.ack
            self._gap_reports.clear()
            self._rto_timer.cancel()
        # Gap reports: retransmit a hole after three sightings (like TCP's
        # dupACK threshold, per RFC 4960's fast retransmit on 3 SACKs).
        if packet.sack:
            hole_start = self.snd_una
            hole_end = packet.sack[0][0]
            if hole_end > hole_start:
                key = (hole_start, hole_end)
                self._gap_reports[key] = self._gap_reports.get(key, 0) + 1
                if self._gap_reports[key] == 3:
                    seq = hole_start
                    while seq < hole_end:
                        chunk = min(MSS, hole_end - seq)
                        self._emit(seq, chunk, retransmission=True)
                        seq += chunk
        self._try_send()

    def _on_rto(self) -> None:
        if self.flight_bytes <= 0:
            return
        self.rtos += 1
        self._emit(self.snd_una, min(MSS, self.data_target - self.snd_una),
                   retransmission=True)
        self._rto_timer.arm_after(self.rto_ns)

    def close(self) -> None:
        """Teardown."""
        self._rto_timer.cancel()
        self._host.unregister_handler(self.flow.reversed())


class SctpReceiver:
    """Reassembles chunks and delivers whole messages, in order."""

    def __init__(
        self,
        engine: Engine,
        host: Host,
        flow: FiveTuple,
        message_sizes: Optional[List[int]] = None,
        on_message: Optional[MessageCallback] = None,
    ):
        if flow.proto != SCTP_PROTO:
            raise ValueError(f"SCTP association needs proto {SCTP_PROTO}, got {flow.proto}")
        self._engine = engine
        self._host = host
        self.flow = flow
        self.on_message = on_message
        host.register_handler(flow, self._on_segment)

        self.rcv_nxt = 0
        self._ooo: List[Tuple[int, int]] = []
        #: Cumulative end offsets of expected messages, appended as the
        #: application announces them (mirrors the sender's framing).
        self.message_ends: List[int] = list(message_sizes or [])
        self._next_message = 0
        self.messages_delivered = 0
        self.sacks_sent = 0

    def expect_message(self, nbytes: int) -> None:
        """Announce one more message boundary (receiver-side framing)."""
        last = self.message_ends[-1] if self.message_ends else 0
        self.message_ends.append(last + nbytes)

    def _on_segment(self, segment: Segment) -> None:
        if segment.payload_len == 0:
            return
        for packet in segment.packets:
            self._absorb(packet.seq, packet.end_seq)
        self._deliver_messages()
        self._send_sack()

    def _absorb(self, start: int, end: int) -> None:
        if end <= self.rcv_nxt:
            return
        if start > self.rcv_nxt:
            merge_range(self._ooo, start, end)
            return
        self.rcv_nxt = end
        while self._ooo and self._ooo[0][0] <= self.rcv_nxt:
            s, e = self._ooo.pop(0)
            if e > self.rcv_nxt:
                self.rcv_nxt = e

    def _deliver_messages(self) -> None:
        while (self._next_message < len(self.message_ends)
               and self.message_ends[self._next_message] <= self.rcv_nxt):
            if self.on_message is not None:
                self.on_message(self._next_message, self._engine.now)
            self._next_message += 1
            self.messages_delivered += 1

    def _send_sack(self) -> None:
        sack = Packet(
            self.flow.reversed(),
            0,
            0,
            flags=TcpFlags.ACK,
            ack=self.rcv_nxt,
            sack=tuple(self._ooo[:3]),
            priority=PRIORITY_HIGH,
            sent_at=self._engine.now,
        )
        self.sacks_sent += 1
        self._host.transmit(sack)

    def close(self) -> None:
        """Teardown."""
        self._host.unregister_handler(self.flow)
