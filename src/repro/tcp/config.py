"""TCP endpoint tunables."""

from __future__ import annotations

from dataclasses import dataclass

from repro.cc.base import CC_ALGORITHMS
from repro.net.constants import MAX_TSO_PAYLOAD, MSS
from repro.sim.time import MS, US


@dataclass(frozen=True)
class TcpConfig:
    """Parameters shared by the sender and receiver models."""

    #: Initial congestion window in bytes (Linux default: 10 MSS).
    init_cwnd: int = 10 * MSS
    #: Lower bound on the retransmission timeout.  Datacenter deployments
    #: tune this far below the WAN default; the paper's latency results
    #: imply sub-millisecond-scale recovery.
    min_rto: int = 1 * MS
    #: Upper bound on the RTO (backoff cap).
    max_rto: int = 100 * MS
    #: Receive socket buffer size in bytes (advertised-window ceiling).
    rx_buffer: int = 4 * 1024 * 1024
    #: Duplicate-ACK threshold for fast retransmit.
    dupack_threshold: int = 3
    #: RFC 5827 Early Retransmit (on by default in Linux 4.1, the paper's
    #: kernel): with fewer than four segments outstanding, lower the
    #: duplicate-ACK threshold so short flows recover without an RTO.
    early_retransmit: bool = True
    #: Linux's tcp_reordering adaptation: every DSACK (evidence that a
    #: retransmission was spurious) raises the effective duplicate-ACK
    #: threshold, up to this cap (Linux caps at 300; reordering beyond the
    #: cap keeps triggering spurious recoveries — the residual protocol
    #: damage the vanilla kernel suffers).
    max_reordering: int = 16
    #: Largest burst handed to TSO in one shot, bytes (at most
    #: ``MAX_TSO_PAYLOAD``, which the default is).
    max_burst: int = 44 * MSS
    #: DCTCP-style ECN reaction (the datacenter transport the paper's
    #: context assumes, §3.2).  Only has an effect on fabrics that mark.
    ecn: bool = True
    #: DCTCP's EWMA gain for the congestion-extent estimate.
    dctcp_g: float = 1.0 / 16.0
    #: Initial RTT estimate before any sample (seeds the RTO).
    initial_rtt: int = 200 * US
    #: Congestion-control policy, a key of ``repro.cc.base.CC_ALGORITHMS``:
    #: "reno" (the default, byte-identical to the historical monolithic
    #: sender), "cubic", "dctcp" or "bbr".
    cc: str = "reno"

    def __post_init__(self) -> None:
        if self.init_cwnd < MSS:
            raise ValueError(f"init_cwnd must be >= one MSS, got {self.init_cwnd}")
        if self.min_rto <= 0 or self.max_rto < self.min_rto:
            raise ValueError(
                f"need 0 < min_rto <= max_rto, got {self.min_rto}, {self.max_rto}"
            )
        if self.dupack_threshold < 1:
            raise ValueError(
                f"dupack_threshold must be >= 1, got {self.dupack_threshold}"
            )
        if self.max_burst < MSS:
            raise ValueError(f"max_burst must be >= one MSS, got {self.max_burst}")
        if self.max_burst > MAX_TSO_PAYLOAD:
            # TSO cuts no more than this; the sender would book the excess
            # as sent and later "recover" it as loss.
            raise ValueError(f"max_burst must be <= MAX_TSO_PAYLOAD "
                             f"({MAX_TSO_PAYLOAD}), got {self.max_burst}")
        if self.cc not in CC_ALGORITHMS:
            raise ValueError(
                f"unknown congestion control {self.cc!r}; "
                f"choose from {sorted(CC_ALGORITHMS)}"
            )
