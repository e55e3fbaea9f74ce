"""CUBIC (RFC 8312): window growth as a cubic of time since last loss.

The window grows along ``W(t) = C·(t − K)³ + W_max`` — concave while
recovering toward the pre-loss plateau ``W_max``, then convex while
probing beyond it — which makes growth independent of RTT and far more
aggressive than Reno on long-RTT or large-BDP paths.  The TCP-friendly
region (``W_est``) keeps it at least as fast as Reno where Reno would
win.  Loss reaction is a β = 0.7 multiplicative decrease with fast
convergence (release the plateau early when losses repeat).

Internally the cubic is computed in MSS-segment units with time in float
seconds — exactly how the RFC states it — and the result is converted to
integer bytes once per ACK.  All inputs are integers from the simulator,
so the arithmetic is deterministic across runs and platforms.
"""

from __future__ import annotations

from repro.cc.base import CongestionControl
from repro.net.constants import MSS
from repro.tcp.config import INITIAL_RTT

#: RFC 8312 constants.
CUBIC_C = 0.4
CUBIC_BETA = 0.7


class CubicCC(CongestionControl):
    """CUBIC windows; DCTCP/ECN echoes are treated as plain congestion."""

    name = "cubic"

    def __init__(self, config, rtt, *, tracer=None, flow=None):
        super().__init__(config, rtt, tracer=tracer, flow=flow)
        #: The pre-loss plateau in segments (0 until the first loss).
        self.w_max = 0.0
        #: Epoch start (ns) of the current cubic curve; None resets it.
        self._epoch_start = None
        #: Time (s) at which the curve crosses w_max again.
        self._k = 0.0
        #: Reno-estimate accumulator for the TCP-friendly region.
        self._w_est = 0.0
        #: Segments ACKed since the epoch began (drives W_est).
        self._acked_since_epoch = 0.0

    def state(self) -> str:
        if self.cwnd < self.ssthresh:
            return "slow_start"
        return "cubic_growth"

    # -- hooks -----------------------------------------------------------------

    def on_ack(self, acked: int, now: int, *, ack: int, snd_nxt: int,
               flight: int, in_recovery: bool,
               recovery_exit: bool) -> None:
        if recovery_exit:
            self.cwnd = max(self.ssthresh, 2 * MSS)
            return
        if in_recovery:
            return
        if self.cwnd < self.ssthresh:
            self.cwnd += acked  # slow start, same as Reno
            return
        self._cubic_update(acked, now)

    def on_dupack(self, count: int, *, in_recovery: bool) -> None:
        if in_recovery:
            self.cwnd += MSS  # keep the pipe full, as Reno does

    def on_recovery_start(self, flight: int, now: int) -> None:
        super().on_recovery_start(flight, now)
        cwnd_seg = self.cwnd / MSS
        # Fast convergence: when losses repeat below the old plateau,
        # release capacity by remembering a lowered W_max.
        if cwnd_seg < self.w_max:
            self.w_max = cwnd_seg * (2.0 - CUBIC_BETA) / 2.0
        else:
            self.w_max = cwnd_seg
        self.ssthresh = max(int(self.cwnd * CUBIC_BETA), 2 * MSS)
        self.cwnd = self.ssthresh
        self._epoch_start = None

    def on_rto(self, flight: int, now: int) -> None:
        self.w_max = self.cwnd / MSS
        self.ssthresh = max(int(self.cwnd * CUBIC_BETA), 2 * MSS)
        self.cwnd = MSS
        self._epoch_start = None

    # -- the cubic -------------------------------------------------------------

    def _cubic_update(self, acked: int, now: int) -> None:
        if self._epoch_start is None:
            self._epoch_start = now
            cwnd_seg = self.cwnd / MSS
            if self.w_max < cwnd_seg:
                self.w_max = cwnd_seg
            self._k = ((self.w_max - cwnd_seg) / CUBIC_C) ** (1.0 / 3.0)
            self._w_est = cwnd_seg
            self._acked_since_epoch = 0.0
        self._acked_since_epoch += acked / MSS
        srtt = self.rtt.srtt if self.rtt.srtt is not None else INITIAL_RTT
        # Target the curve one RTT ahead (RFC 8312 §4.1).
        t_sec = (now - self._epoch_start + srtt) / 1e9
        target_seg = self.w_max + CUBIC_C * (t_sec - self._k) ** 3
        cwnd_seg = self.cwnd / MSS
        # TCP-friendly region: the window Reno would have reached.
        self._w_est += (3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA)
                        * (acked / MSS) / cwnd_seg)
        if target_seg < self._w_est:
            target_seg = self._w_est
        if target_seg > cwnd_seg:
            # Spread the climb over the window's worth of ACKs; never
            # more than a slow-start doubling per ACK.
            step = (target_seg - cwnd_seg) / cwnd_seg * acked
            self.cwnd += min(int(step), acked)
        else:
            # At or beyond target: creep so the epoch clock still moves.
            self.cwnd += max(1, MSS * acked // (100 * self.cwnd))
