"""The congestion-control policy interface.

:class:`~repro.tcp.sender.TcpSender` is the *mechanism* layer — sequence
state, SACK scoreboard, retransmit queue, RTO timer, burst emission — and
delegates every window/rate decision to a :class:`CongestionControl`
policy.  The split follows the kernel's ``tcp_congestion_ops``: the
mechanism detects events (ACK progress, duplicate ACKs, SACK news, CE
echoes, timeouts) and calls the policy's hooks; the policy answers with a
congestion window (``cwnd``), a slow-start threshold (``ssthresh``) and,
for rate-based senders, a pacing rate the sender's timer-wheel wakeups
enforce between bursts.

Hook call order on the ACK path (the mechanism guarantees it):

1. ``on_ce`` with any CE-marked bytes echoed on the ACK,
2. ``on_sack`` when the scoreboard gained new SACK information,
3. ``on_ack`` for cumulative progress (after the mechanism's own
   recovery bookkeeping and hole retransmissions), or
4. ``on_dupack`` when the ACK was a duplicate.

``on_send`` fires only for *new* data leaving the sender (retransmissions
never feed the delivery-rate sampler), and ``on_recovery_start`` /
``on_rto`` fire when the mechanism enters fast recovery or backs off on a
timeout.  See docs/transport.md for the full contract.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.cc.rtt import RttEstimator

if TYPE_CHECKING:  # repro.cc must not import repro.tcp at runtime (cycle)
    from repro.tcp.config import TcpConfig


class CongestionControl:
    """Base policy: hooks are no-ops, the window never moves."""

    #: The ``TcpConfig.cc`` selector value.
    name = "base"

    def __init__(self, config: TcpConfig, rtt: RttEstimator, *,
                 tracer=None, flow=None):
        self.config = config
        #: Shared RFC 6298 estimator, owned by the sender, fed by it.
        self.rtt = rtt
        self.tracer = tracer
        self.flow = flow
        #: Congestion window, bytes.
        self.cwnd = config.init_cwnd
        #: Slow-start threshold, bytes (effectively infinite at start).
        self.ssthresh = 1 << 62
        #: Fast-recovery episodes this policy reacted to.
        self.recoveries = 0

    # -- outputs ---------------------------------------------------------------

    def pacing_rate_gbps(self) -> Optional[float]:
        """Pacing rate in Gb/s, or None for pure window-based sending."""
        return None

    def delivery_rate_gbps(self) -> Optional[float]:
        """Most recent delivery-rate estimate, when the policy samples one."""
        return None

    def state(self) -> str:
        """The policy's current state-machine phase (for cc_state traces)."""
        return "steady"

    # -- event hooks -----------------------------------------------------------

    def on_send(self, end_seq: int, nbytes: int, now: int, *,
                app_limited: bool = False) -> None:
        """New data through ``end_seq`` left the sender at ``now``."""

    def on_ack(self, acked: int, now: int, *, ack: int, snd_nxt: int,
               flight: int, in_recovery: bool,
               recovery_exit: bool) -> None:
        """The cumulative ACK advanced by ``acked`` bytes."""

    def on_dupack(self, count: int, *, in_recovery: bool) -> None:
        """A duplicate ACK arrived (``count`` consecutive so far)."""

    def on_sack(self, sacked_bytes: int, now: int) -> None:
        """The scoreboard gained new SACK information."""

    def on_ce(self, ce_bytes: int) -> None:
        """The ACK echoed ``ce_bytes`` of CE-marked payload."""

    def on_recovery_start(self, flight: int, now: int) -> None:
        """The mechanism entered fast recovery (dupACK/SACK trigger)."""
        self.recoveries += 1

    def on_rto(self, flight: int, now: int) -> None:
        """The retransmission timer fired; the window should collapse."""

    # -- tracing ---------------------------------------------------------------

    def _trace_state(self, now: int, old_state: str, new_state: str) -> None:
        """Emit a ``cc_state`` event when tracing is on."""
        if self.tracer is not None:
            self.tracer.cc_state(now, self.flow, self.name, old_state,
                                 new_state, self.cwnd,
                                 self.pacing_rate_gbps())


#: ``TcpConfig.cc`` selector -> (defining module, policy class).  A policy
#: module is imported by the first :func:`make_cc` that names it, so a cell
#: loads only the policies it runs.
CC_ALGORITHMS: Dict[str, Tuple[str, str]] = {
    "reno": ("repro.cc.reno", "RenoCC"),
    "cubic": ("repro.cc.cubic", "CubicCC"),
    "dctcp": ("repro.cc.dctcp", "DctcpCC"),
    "bbr": ("repro.cc.bbr", "BbrV1CC"),
}


def make_cc(name: str, config: TcpConfig, rtt: RttEstimator, *, tracer=None,
            flow=None) -> CongestionControl:
    """Instantiate the policy registered under ``name``."""
    try:
        module, cls = CC_ALGORITHMS[name]
    except KeyError:
        raise ValueError(
            f"unknown congestion control {name!r}; "
            f"choose from {sorted(CC_ALGORITHMS)}"
        ) from None
    policy = getattr(importlib.import_module(module), cls)
    return policy(config, rtt, tracer=tracer, flow=flow)
