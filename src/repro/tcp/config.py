"""TCP endpoint tunables, and the transport constants no experiment varies."""

from __future__ import annotations

from dataclasses import dataclass

from repro.cc.base import CC_ALGORITHMS
from repro.net.constants import MSS
from repro.sim.time import MS, US

#: Lower bound on the retransmission timeout.  Datacenter deployments tune
#: this far below the WAN default; the paper's latency results imply
#: sub-millisecond-scale recovery.
MIN_RTO = 1 * MS
#: Upper bound on the RTO (backoff cap).
MAX_RTO = 100 * MS
#: Initial RTT estimate before any sample (seeds the RTO).
INITIAL_RTT = 200 * US
#: Duplicate-ACK threshold for fast retransmit.  With fewer than four
#: segments outstanding and no reordering seen, RFC 5827 Early Retransmit
#: (on by default in Linux 4.1, the paper's kernel) lowers it so short
#: flows recover without an RTO.
DUPACK_THRESHOLD = 3
#: Linux's tcp_reordering adaptation: every DSACK (evidence that a
#: retransmission was spurious) raises the effective duplicate-ACK
#: threshold, up to this cap (Linux caps at 300; reordering beyond the cap
#: keeps triggering spurious recoveries — the residual protocol damage the
#: vanilla kernel suffers).
MAX_REORDERING = 16
#: DCTCP's EWMA gain for the congestion-extent estimate.
DCTCP_G = 1.0 / 16.0


@dataclass(frozen=True)
class TcpConfig:
    """Parameters shared by the sender and receiver models."""

    #: Initial congestion window in bytes (Linux default: 10 MSS).
    init_cwnd: int = 10 * MSS
    #: Receive socket buffer size in bytes (advertised-window ceiling).
    rx_buffer: int = 4 * 1024 * 1024
    #: Congestion-control policy, a key of ``repro.cc.base.CC_ALGORITHMS``:
    #: "reno" (the default, byte-identical to the historical monolithic
    #: sender), "cubic", "dctcp" or "bbr".
    cc: str = "reno"

    def __post_init__(self) -> None:
        if self.init_cwnd < MSS:
            raise ValueError(f"init_cwnd must be >= one MSS, got {self.init_cwnd}")
        if self.rx_buffer < MSS:
            # A smaller window never opens for one segment: the flow would
            # run to the end of the cell with zero goodput and no error.
            raise ValueError(f"rx_buffer must be >= one MSS, got {self.rx_buffer}")
        if self.cc not in CC_ALGORITHMS:
            raise ValueError(
                f"unknown congestion control {self.cc!r}; "
                f"choose from {sorted(CC_ALGORITHMS)}"
            )
