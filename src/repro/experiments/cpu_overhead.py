"""Figures 9 and 10: CPU overhead of Juggler vs the vanilla kernel.

Setup (§5.1.1): a two-stage Clos; senders rate-limited to 20 Gb/s aggregate
into a single RX queue at the receiver; background traffic loads the sending
ToR's uplinks to ~50%; ECMP gives the no-reordering baseline, per-packet
spraying creates reordering.  Four scenarios — {1 flow, 256 flows} ×
{ECMP, per-packet} — each run under both kernels.

Paper results this experiment reproduces:

* without reordering, Juggler adds no CPU over vanilla;
* with reordering, the vanilla receiver's application core saturates
  (~100%) and it "falls short of reaching 20Gb/s", while Juggler sustains
  the target using < 10% additional CPU;
* vanilla under reordering sees ~15× more segments (≈40% out of order) and
  ~15× more ACKs (§5.1.1's prose numbers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.cell import Cell
from repro.fabric.routing import EcmpRouting, PerPacketRouting
from repro.harness.experiment import GroKind
from repro.harness.reporting import format_table
from repro.nic.nic import NicConfig
from repro.sim.time import MS
from repro.tcp.config import TcpConfig


@dataclass(frozen=True)
class CpuOverheadParams:
    """Both figures' scenarios (Figure 9 is the 1-flow slice, Figure 10 the
    256-flow one) and their shared configuration."""

    flow_counts: tuple = (1, 256)
    #: Per-packet spraying (True) vs ECMP (False).
    reorderings: tuple = (False, True)
    #: GRO kernels, as :class:`GroKind` values.
    kinds: tuple = ("vanilla", "juggler")
    target_gbps: float = 20.0
    uplink_gbps: float = 40.0
    n_spines: int = 2
    background_gbps: float = 20.0  # brings uplink load to ~50%
    inseq_timeout_us: int = 13  # 40G rule of thumb (§5.2.1)
    ofo_timeout_us: int = 100
    warmup_ms: int = 10
    measure_ms: int = 20
    seed: int = 9


@dataclass
class CpuOverheadPoint:
    """One scenario's measurements."""

    num_flows: int
    reordering: bool
    kind: GroKind
    target_gbps: float
    throughput_gbps: float
    rx_core_pct: float
    app_core_pct: float
    batching_extent: float
    segments: int
    ooo_segment_fraction: float
    acks_sent: int

    @property
    def throughput_pct_of_target(self) -> float:
        """Throughput as % of the rate-limited target."""
        return 100.0 * self.throughput_gbps / self.target_gbps


#: Sweep axes in loop-nesting order: (point field, params grid field).
POINT_AXES = (("num_flows", "flow_counts"),
              ("reordering", "reorderings"),
              ("kind", "kinds"))
#: The routing and the kernel are the arms of one comparison.
PAIRED_AXES = ("reordering", "kind")


def run_point(params: CpuOverheadParams, *, num_flows: int,
              reordering: bool, kind: str) -> CpuOverheadPoint:
    """Run one {flows, reordering, kernel} cell."""
    kind = GroKind.of(kind)
    cell = Cell(params.seed, kind, inseq_us=params.inseq_timeout_us,
                ofo_us=params.ofo_timeout_us, cpu=True)
    # ToR 0 hosts the senders; ToR 1 hosts the receiver and the background
    # sink.  All measured flows aim at one receiver host => one RX queue.
    net = cell.clos(
        (lambda: PerPacketRouting(cell.rngs.stream("spray")))
        if reordering else EcmpRouting,
        params.uplink_gbps,
        n_tors=2,
        hosts_per_tor=max(2, num_flows if num_flows <= 8 else 8),
        n_spines=params.n_spines,
        nic_config=NicConfig(num_queues=1, coalesce_frames=32),
    )
    hosts_per_tor = len(net.hosts) // 2
    receiver = net.hosts[hosts_per_tor]
    cell.measure_host(receiver)
    cell.paced_flows(
        net.hosts[:hosts_per_tor], receiver, num_flows,
        params.target_gbps, 10_000,
        TcpConfig(init_cwnd=1 << 19, rx_buffer=4 << 20),
        cell.rngs.stream("flow-start"), 1 << 40)
    # Background load brings the sending ToR's uplinks to ~50%.
    cell.background(net, net.hosts[hosts_per_tor + 1],
                    params.background_gbps, params.uplink_gbps)

    window = cell.measure(params.warmup_ms * MS,
                          (params.warmup_ms + params.measure_ms) * MS)
    return CpuOverheadPoint(
        num_flows=num_flows,
        reordering=reordering,
        kind=kind,
        target_gbps=params.target_gbps,
        throughput_gbps=window.goodput_gbps,
        rx_core_pct=window.rx_core_pct,
        app_core_pct=window.app_core_pct,
        batching_extent=window.batching,
        segments=window.segments,
        ooo_segment_fraction=((window.ooo_segments / window.segments)
                              if window.segments else 0.0),
        acks_sent=window.acks,
    )


def render(points: List[CpuOverheadPoint]) -> str:
    """The figure's bars as one table."""
    rows = [
        (
            r.num_flows,
            "per-packet" if r.reordering else "ecmp",
            r.kind.value,
            round(r.throughput_pct_of_target, 1),
            round(r.rx_core_pct, 1),
            round(min(r.app_core_pct, 100.0), 1),
            round(r.batching_extent, 1),
            round(r.ooo_segment_fraction, 3),
            r.acks_sent,
        )
        for r in points
    ]
    return format_table(
        ["flows", "routing", "kernel", "tput_pct_target", "rx_core_pct",
         "app_core_pct", "batching", "ooo_frac", "acks"],
        rows,
    )
