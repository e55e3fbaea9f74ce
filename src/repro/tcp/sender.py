"""The TCP send side: the loss-recovery *mechanism* under a pluggable policy.

The sender transmits data in TSO bursts (up to 64 KB handed to the NIC at
once), which is both how real stacks amortise per-packet cost and the origin
of the traffic burstiness Juggler's eviction policy exploits (§4.3).  It
owns everything congestion control does *not* decide — sequence state, the
SACK scoreboard with NewReno partial-ACK handling, reordering adaptation,
the RTO timer with exponential backoff, burst emission and pacing
enforcement — and delegates every window/rate decision to a
:class:`~repro.cc.base.CongestionControl` policy selected by
``TcpConfig.cc`` (the split mirrors the kernel's ``tcp_congestion_ops``).
With the default ``cc="reno"`` the composition reproduces the historical
monolithic sender byte-for-byte: reordering-induced duplicate ACKs do
exactly the damage the paper describes for the vanilla kernel.

An optional ``priority_fn`` assigns each outgoing packet a network priority;
the bandwidth-guarantee controller (§2.1) plugs in there.  An optional
pacing rate reproduces the experiments that "rate limit the total
throughput" (§5.1.1); rate-based policies (BBR) feed the same pacing loop,
enforced by timer-wheel wakeups between bursts.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.cc.base import make_cc
from repro.cc.rtt import RttEstimator
from repro.fabric.host import Host
from repro.net.addr import FiveTuple
from repro.net.constants import MAX_TSO_PAYLOAD, MSS, PRIORITY_LOW
from repro.net.packet import Packet
from repro.net.ranges import merge_range
from repro.net.segment import Segment
from repro.net.tso import segment_tso_burst
from repro.sim.engine import Engine
from repro.sim.event import EventHandle
from repro.sim.timer import Timer
from repro.tcp.config import (DUPACK_THRESHOLD, INITIAL_RTT, MAX_REORDERING,
                               MAX_RTO, MIN_RTO, TcpConfig)
from repro.trace import runtime as trace_runtime

#: Returns the priority for one outgoing packet.
PriorityFn = Callable[[Packet], int]


class TcpSender:
    """One flow's transmit side (mechanism; policy in ``self.cc``)."""

    def __init__(
        self,
        engine: Engine,
        host: Host,
        flow: FiveTuple,
        config: Optional[TcpConfig] = None,
        *,
        priority_fn: Optional[PriorityFn] = None,
        pacing_gbps: Optional[float] = None,
        options: tuple = (),
    ):
        self._engine = engine
        self._host = host
        self.flow = flow
        self.config = config if config is not None else TcpConfig()
        self.priority_fn = priority_fn
        self.pacing_gbps = pacing_gbps
        self.options = options
        host.register_handler(flow.reversed(), self.on_ack_segment)

        # Sequence state (byte granularity).
        self.snd_una = 0
        self.snd_nxt = 0
        #: Highest byte ever put on the wire (snd_nxt can rewind on RTO).
        self.high_sent = 0
        #: Application bytes enqueued for transmission so far.
        self.data_target = 0

        # Loss-detection state (mechanism side of congestion control).
        self.dup_acks = 0
        self.in_recovery = False
        self.recover = 0
        self.peer_rwnd = self.config.rx_buffer

        # SACK scoreboard: disjoint sorted ranges the peer holds beyond
        # snd_una, and the retransmission high-water mark within recovery.
        self.sacked: list = []
        #: Bytes the scoreboard holds, kept by the two places that change
        #: ``sacked``: ``_merge_sack`` adds what a block newly covered,
        #: ``_on_new_ack`` subtracts the ranges the cumulative ACK passed.
        self._sacked_total = 0
        self.high_rexmit = 0

        # Reordering adaptation (Linux tcp_reordering): DSACKs push the
        # effective dupACK threshold up so persistent reordering stops
        # triggering spurious recoveries.
        self.reordering_threshold = DUPACK_THRESHOLD
        self.dsacks_received = 0

        # RTT estimation / RTO (the estimator is shared with the policy).
        self.rtt = RttEstimator()
        self._rto_backoff = 1
        self._rto_timer = Timer(engine, self._on_rto)
        self._send_times: Dict[int, int] = {}

        # The congestion-control policy (window/rate decisions).
        self.tracer = trace_runtime.current()
        self.cc = make_cc(self.config.cc, self.config, self.rtt,
                          tracer=self.tracer, flow=flow)

        # Pacing.
        self._next_send_at = 0
        self._send_wakeup: Optional[EventHandle] = None

        # Counters.
        self.bursts_sent = 0
        self.packets_sent = 0
        self.retransmitted_packets = 0
        self.fast_retransmits = 0
        self.rtos = 0
        self.acks_received = 0
        self.dupacks_received = 0

        if self.tracer is not None:
            metrics = self.tracer.metrics
            self._m_retransmits = metrics.counter("tcp.retransmits")
            self._m_recoveries = metrics.counter("tcp.recoveries")
            self._m_spurious = metrics.counter("tcp.spurious_rexmits")
            prefix = f"cc.flow{self.tracer.component_index('cc')}"
            cc = self.cc
            metrics.gauge(f"{prefix}.cwnd", lambda: cc.cwnd)
            metrics.gauge(f"{prefix}.ssthresh", lambda: cc.ssthresh)
            metrics.gauge(f"{prefix}.pacing_gbps",
                          lambda: cc.pacing_rate_gbps() or 0.0)
            metrics.gauge(f"{prefix}.delivery_gbps",
                          lambda: cc.delivery_rate_gbps() or 0.0)
            metrics.gauge(f"{prefix}.recoveries", lambda: cc.recoveries)
        else:
            self._m_retransmits = None
            self._m_recoveries = None
            self._m_spurious = None

    # -- policy delegation ------------------------------------------------------

    @property
    def cwnd(self) -> int:
        """The policy's congestion window, bytes."""
        return self.cc.cwnd

    @cwnd.setter
    def cwnd(self, value: int) -> None:
        self.cc.cwnd = value

    @property
    def ssthresh(self) -> int:
        """The policy's slow-start threshold, bytes."""
        return self.cc.ssthresh

    @ssthresh.setter
    def ssthresh(self, value: int) -> None:
        self.cc.ssthresh = value

    @property
    def dctcp_alpha(self) -> float:
        """The policy's DCTCP congestion-extent estimate (0.0 if N/A)."""
        return getattr(self.cc, "dctcp_alpha", 0.0)

    @dctcp_alpha.setter
    def dctcp_alpha(self, value: float) -> None:
        self.cc.dctcp_alpha = value

    @property
    def srtt(self) -> Optional[int]:
        """Smoothed RTT from the shared estimator (ns; None pre-sample)."""
        return self.rtt.srtt

    @property
    def spurious_rexmits(self) -> int:
        """Retransmissions proven unnecessary (one per DSACK received)."""
        return self.dsacks_received

    # -- application interface --------------------------------------------------

    def send(self, nbytes: int) -> None:
        """Enqueue ``nbytes`` of application data and try to transmit."""
        if nbytes <= 0:
            raise ValueError(f"must send a positive byte count, got {nbytes}")
        self.data_target += nbytes
        self._try_send()

    @property
    def bytes_acked(self) -> int:
        """Cumulative bytes acknowledged by the peer."""
        return self.snd_una

    @property
    def flight_size(self) -> int:
        """Bytes in flight."""
        return self.snd_nxt - self.snd_una

    @property
    def done(self) -> bool:
        """All enqueued data acknowledged."""
        return self.snd_una >= self.data_target

    # -- ACK path -----------------------------------------------------------------

    def on_ack_segment(self, segment: Segment) -> None:
        """GRO delivered ACKs of our flow (usually passthrough singles)."""
        for packet in segment.packets:
            self._on_ack(packet)

    def _on_ack(self, packet: Packet) -> None:
        self.acks_received += 1
        if packet.rwnd is not None:
            self.peer_rwnd = packet.rwnd
        before = self._sacked_total
        sack = packet.sack
        if sack:
            self._merge_sack(sack)
        sacked_now = self._sacked_total
        new_sack_info = sacked_now > before
        if sack and sack[0][1] <= self.snd_una:
            # Leading block below snd_una is a DSACK: our retransmission was
            # unnecessary — the "loss" was reordering.  Widen tolerance.
            self.dsacks_received += 1
            self.reordering_threshold = min(
                self.reordering_threshold + 1, MAX_REORDERING)
            if self._m_spurious is not None:
                self._m_spurious.inc()
        if packet.ce_bytes:
            self.cc.on_ce(packet.ce_bytes)
        if new_sack_info:
            self.cc.on_sack(sacked_now, self._engine.now)
        ack = packet.ack
        if ack > self.high_sent:
            # Acknowledges data we never sent: malformed or stale — ignore
            # (RFC 793's "unacceptable ACK" handling).
            return
        if ack > self.snd_una:
            self._on_new_ack(ack)
        elif ack == self.snd_una and self.snd_nxt > ack:
            # A DSACK-only ACK (duplicate-data report with no new SACK
            # information) must not feed the fast-retransmit counter — that
            # is what stops spurious retransmissions from snowballing.
            if new_sack_info or not sack:
                self._on_dup_ack()
        self._try_send()

    def _on_new_ack(self, ack: int) -> None:
        acked = ack - self.snd_una
        self.snd_una = ack
        if ack > self.snd_nxt:
            # A rewound send pointer (RTO go-back-N) can be overtaken by a
            # cumulative ACK covering pre-rewind data: jump forward.
            self.snd_nxt = ack
        self.dup_acks = 0
        self._rto_backoff = 1
        self._sample_rtt(ack)
        sacked = self.sacked
        if sacked and sacked[0][1] <= ack:
            # Ranges are sorted and disjoint: those the ACK passed are a
            # prefix.  One it lands inside stays whole, as the peer sent it.
            passed = 0
            for s, e in sacked:
                if e > ack:
                    break
                self._sacked_total -= e - s
                passed += 1
            del sacked[:passed]
        if self.high_rexmit < ack:
            self.high_rexmit = ack
        recovery_exit = False
        if self.in_recovery:
            if ack >= self.recover:
                self.in_recovery = False
                recovery_exit = True
            else:
                # Partial ACK: keep filling the scoreboard's holes.
                self._sack_retransmit()
        flight = self.snd_nxt - ack
        self.cc.on_ack(acked, self._engine.now, ack=ack,
                       snd_nxt=self.snd_nxt, flight=flight,
                       in_recovery=self.in_recovery,
                       recovery_exit=recovery_exit)
        if flight > 0:
            self._arm_rto()
        else:
            self._rto_timer.cancel()

    def _dupack_threshold(self) -> int:
        """The fast-retransmit trigger: tcp_reordering-adapted, with RFC
        5827 Early Retransmit for short flights."""
        threshold = self.reordering_threshold
        if threshold == DUPACK_THRESHOLD:
            # ER only applies while no reordering has been observed
            # (Linux disables it once the reordering metric grows).
            outstanding = -(-self.flight_size // MSS)  # ceil division
            if outstanding < 4:
                threshold = min(threshold, max(1, outstanding - 1))
        return threshold

    def _on_dup_ack(self) -> None:
        self.dup_acks += 1
        self.dupacks_received += 1
        # Linux-style trigger: either enough duplicate ACKs, or enough bytes
        # SACKed above the hole (sacked_out) — a single dupACK whose SACK
        # block covers a whole GRO-merged segment can start recovery alone.
        threshold = self._dupack_threshold()
        triggered = (self.dup_acks >= threshold
                     or self._sacked_total >= threshold * MSS)
        if triggered and not self.in_recovery:
            # Fast retransmit: this is TCP "treating mis-sequenced packets
            # as a signal of packet loss" — spurious under reordering.
            self.in_recovery = True
            self.recover = self.snd_nxt
            self.high_rexmit = self.snd_una
            self.fast_retransmits += 1
            self.cc.on_recovery_start(self.flight_size, self._engine.now)
            if self._m_recoveries is not None:
                self._m_recoveries.inc()
            if self.tracer is not None:
                self.tracer.cc_recovery(self._engine.now, self.flow,
                                        self.cc.name, "fast_retransmit",
                                        self.cc.cwnd, self.cc.ssthresh)
            if self.sacked:
                self._sack_retransmit()
            else:
                # Classic (SACK-less) fast retransmit of the first segment.
                self._retransmit(self.snd_una, MSS)
        elif self.in_recovery:
            self.cc.on_dupack(self.dup_acks, in_recovery=True)
            self._sack_retransmit()
        else:
            self.cc.on_dupack(self.dup_acks, in_recovery=False)

    def _merge_sack(self, blocks) -> None:
        """Fold an ACK's SACK blocks into the scoreboard (disjoint, sorted)."""
        snd_una = self.snd_una
        for start, end in blocks:
            if end > snd_una and end > start:
                # Most blocks repeat the last ACK's: those add nothing.
                self._sacked_total += merge_range(
                    self.sacked, start if start > snd_una else snd_una, end)

    def _sacked_bytes(self) -> int:
        """Bytes the scoreboard holds (``sum(e - s for s, e in sacked)``)."""
        return self._sacked_total

    def _sack_retransmit(self) -> None:
        """Retransmit scoreboard holes, pipe-limited (simplified RFC 6675).

        Only data below the highest SACKed byte can be inferred lost
        (IsLost); with an empty scoreboard nothing is known lost and nothing
        is retransmitted — that restraint is what keeps a *spurious*
        recovery (reordering mistaken for loss) from snowballing into a
        retransmission storm.
        """
        if not self.sacked:
            return
        pipe = self.flight_size - self._sacked_total
        # The conservative pipe estimate cannot distinguish lost bytes from
        # in-flight ones, so guarantee NewReno-grade progress: at least one
        # MSS of retransmission per ACK processed during recovery.
        budget = max(self.cc.cwnd - pipe, MSS)
        pos = max(self.high_rexmit, self.snd_una)
        limit = min(self.recover, self.snd_nxt, self.sacked[-1][1])
        blocks = iter(self.sacked)
        block = next(blocks, None)
        while budget > 0 and pos < limit:
            # Skip past any SACKed range covering pos.
            while block is not None and block[1] <= pos:
                block = next(blocks, None)
            if block is not None and block[0] <= pos:
                pos = block[1]
                continue
            hole_end = min(block[0] if block is not None else limit, limit)
            chunk = min(hole_end - pos, MAX_TSO_PAYLOAD, budget)
            if chunk <= 0:
                break
            self._emit_burst(pos, chunk,
                             push=(pos + chunk >= self.data_target),
                             retransmission=True)
            pos += chunk
            budget -= chunk
        if pos > self.high_rexmit:
            self.high_rexmit = pos

    def _sample_rtt(self, ack: int) -> None:
        send_times = self._send_times
        sent_at = send_times.pop(ack, None)
        # Garbage-collect samples the cumulative ACK has passed.  Keys are
        # successive snd_nxt values and an RTO rewind clears the dict, so
        # insertion order is ascending and the passed ones are at the front.
        while send_times:
            end = next(iter(send_times))
            if end > ack:
                break
            del send_times[end]
        if sent_at is None:
            return
        now = self._engine.now
        self.rtt.sample(now - sent_at, now)

    # -- transmission --------------------------------------------------------------

    def _try_send(self) -> None:
        now = self._engine.now
        cc = self.cc
        while self.snd_nxt < self.data_target:
            # Static rate limit if configured, else the policy's pacing rate.
            rate = self.pacing_gbps
            if rate is None:
                rate = cc.pacing_rate_gbps()
            if rate is not None and now < self._next_send_at:
                self._schedule_wakeup(self._next_send_at)
                return
            window = cc.cwnd
            if self.peer_rwnd < window:
                window = self.peer_rwnd
            avail = self.snd_una + window - self.snd_nxt
            remaining = self.data_target - self.snd_nxt
            burst = min(avail, MAX_TSO_PAYLOAD, remaining)
            if burst < min(MSS, remaining):
                break  # window closed (ACKs will reopen it) or runt mid-stream
            self._emit_burst(self.snd_nxt, burst, push=(burst == remaining))
            self.snd_nxt += burst
            self._send_times[self.snd_nxt] = now
            cc.on_send(self.snd_nxt, burst, now,
                       app_limited=self.snd_nxt >= self.data_target)
            if rate is not None:
                tx_ns = round(burst * 8 / rate)
                self._next_send_at = max(now, self._next_send_at) + tx_ns

    def _schedule_wakeup(self, at: int) -> None:
        if self._send_wakeup is not None:
            return
        self._send_wakeup = self._engine.schedule_at(at, self._wakeup_fire)

    def _wakeup_fire(self) -> None:
        self._send_wakeup = None
        self._try_send()

    def _emit_burst(self, seq: int, nbytes: int, *, push: bool,
                    retransmission: bool = False) -> None:
        now = self._engine.now
        packets = segment_tso_burst(
            self.flow,
            seq,
            nbytes,
            sent_at=now,
            priority=PRIORITY_LOW,
            options=self.options,
            push_last=push,
            is_retransmission=retransmission,
            tso_id=self.bursts_sent,
        )
        transmit = self._host.transmit
        priority_fn = self.priority_fn
        if priority_fn is None:
            for packet in packets:
                transmit(packet)
        else:
            for packet in packets:
                packet.priority = priority_fn(packet)
                transmit(packet)
        self.bursts_sent += 1
        self.packets_sent += len(packets)
        if seq + nbytes > self.high_sent:
            self.high_sent = seq + nbytes
        if retransmission:
            self.retransmitted_packets += len(packets)
            if self._m_retransmits is not None:
                self._m_retransmits.inc(len(packets))
        self._arm_rto(only_if_unarmed=True)

    def _retransmit(self, seq: int, nbytes: int) -> None:
        nbytes = min(nbytes, self.snd_nxt - seq)
        if nbytes <= 0:
            return
        self._emit_burst(seq, nbytes,
                         push=(seq + nbytes >= self.data_target),
                         retransmission=True)

    # -- RTO --------------------------------------------------------------------

    def _arm_rto(self, only_if_unarmed: bool = False) -> None:
        if only_if_unarmed and self._rto_timer.armed:
            return
        self._rto_timer.arm_after(self.rtt.rto(
            min_rto=MIN_RTO, max_rto=MAX_RTO, initial_rtt=INITIAL_RTT,
            backoff=self._rto_backoff))

    def _on_rto(self) -> None:
        if self.flight_size <= 0:
            return
        self.rtos += 1
        self.cc.on_rto(self.flight_size, self._engine.now)
        if self.tracer is not None:
            self.tracer.cc_recovery(self._engine.now, self.flow,
                                    self.cc.name, "rto",
                                    self.cc.cwnd, self.cc.ssthresh)
        self.in_recovery = False
        self.dup_acks = 0
        self._rto_backoff = min(self._rto_backoff * 2, 64)
        # Go-back-N: pull the send pointer back so everything unacked is
        # retransmitted as the window reopens (slow start from one MSS).
        self._send_times.clear()
        self.high_rexmit = self.snd_una
        chunk = min(MSS, self.data_target - self.snd_una)
        if chunk > 0:
            self.snd_nxt = self.snd_una + chunk
            self._emit_burst(self.snd_una, chunk,
                             push=(self.snd_una + chunk >= self.data_target),
                             retransmission=True)
        else:
            self.snd_nxt = self.snd_una
        self._arm_rto()

    def close(self) -> None:
        """Unregister and stop timers (experiment teardown)."""
        self._rto_timer.cancel()
        if self._send_wakeup is not None:
            self._send_wakeup.cancel()
            self._send_wakeup = None
        self._host.unregister_handler(self.flow.reversed())
