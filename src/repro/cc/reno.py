"""NewReno with DCTCP-style ECN reaction — the historical default policy.

This is the window arithmetic extracted *verbatim* from the pre-split
``TcpSender``: byte-granular slow start (``cwnd += acked``), congestion
avoidance (``cwnd += max(1, MSS * acked // cwnd)``), the halve-plus-three
fast-retransmit entry, per-dupACK window inflation during recovery, the
deflate-to-ssthresh exit, and the go-back-N RTO collapse to one MSS.  The
DCTCP congestion-extent EWMA rides along on every ACK (on fabrics that
never mark, it is arithmetic-free bookkeeping) — so ``cc="reno"``
reproduces the old sender's behavior byte-for-byte, marks or no marks.
"""

from __future__ import annotations

from repro.cc.base import CongestionControl
from repro.net.constants import MSS
from repro.tcp.config import DCTCP_G


class RenoCC(CongestionControl):
    """NewReno windows, with the legacy DCTCP reaction to CE echoes."""

    name = "reno"

    def __init__(self, config, rtt, *, tracer=None, flow=None):
        super().__init__(config, rtt, tracer=tracer, flow=flow)
        # DCTCP state: congestion-extent EWMA and per-window counters.
        self.dctcp_alpha = 0.0
        self._window_acked = 0
        self._window_ce = 0
        self._window_end = 0

    def state(self) -> str:
        if self.cwnd < self.ssthresh:
            return "slow_start"
        return "cong_avoid"

    # -- hooks -----------------------------------------------------------------

    def on_ack(self, acked: int, now: int, *, ack: int, snd_nxt: int,
               flight: int, in_recovery: bool,
               recovery_exit: bool) -> None:
        if recovery_exit:
            self.cwnd = self.ssthresh
        elif not in_recovery:
            if self.cwnd < self.ssthresh:
                self.cwnd += acked  # slow start
            else:
                # Congestion avoidance: ~one MSS per RTT.
                self.cwnd += max(1, MSS * acked // self.cwnd)
        self._dctcp_window_update(acked, ack, snd_nxt)

    def on_dupack(self, count: int, *, in_recovery: bool) -> None:
        if in_recovery:
            self.cwnd += MSS  # window inflation keeps the pipe full

    def on_ce(self, ce_bytes: int) -> None:
        self._window_ce += ce_bytes

    def on_recovery_start(self, flight: int, now: int) -> None:
        super().on_recovery_start(flight, now)
        self.ssthresh = max(flight // 2, 2 * MSS)
        self.cwnd = self.ssthresh + 3 * MSS

    def on_rto(self, flight: int, now: int) -> None:
        self.ssthresh = max(flight // 2, 2 * MSS)
        self.cwnd = MSS

    # -- DCTCP reaction --------------------------------------------------------

    def _dctcp_window_update(self, acked: int, ack: int,
                             snd_nxt: int) -> None:
        """DCTCP: once per window, estimate the marked fraction and shrink
        cwnd proportionally (cwnd ← cwnd·(1 − α/2))."""
        self._window_acked += acked
        if ack < self._window_end:
            return
        if self._window_acked > 0:
            fraction = min(1.0, self._window_ce / self._window_acked)
            self.dctcp_alpha += DCTCP_G * (fraction - self.dctcp_alpha)
            if self._window_ce > 0:
                reduced = int(self.cwnd * (1.0 - self.dctcp_alpha / 2.0))
                self.cwnd = max(2 * MSS, reduced)
                # Marking ends slow start: converge via gentle reductions.
                self.ssthresh = min(self.ssthresh, self.cwnd)
        self._window_acked = 0
        self._window_ce = 0
        self._window_end = snd_nxt
