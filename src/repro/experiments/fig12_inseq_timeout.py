"""Figure 12: batching efficiency and CPU vs ``inseq_timeout``.

Setup (§5.2.1, Figure 11 testbed): one TCP flow at 10 Gb/s line rate through
the NetFPGA switch, reordering delay τ ∈ {250, 500, 750} µs.  Sweep
``inseq_timeout`` and measure the batching extent (average MTUs per
delivered segment) and RX-core usage.

Paper result: batching improves with ``inseq_timeout`` up to ≈52 µs — the
time to receive one maximum-size 64 KB segment at 10 Gb/s — and flattens
beyond, regardless of how much reordering the network adds.  CPU usage falls
as batching rises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.cell import Cell
from repro.harness.experiment import GroKind
from repro.harness.reporting import format_table
from repro.nic.nic import NicConfig
from repro.sim.time import MS, US
from repro.tcp.config import TcpConfig


@dataclass(frozen=True)
class Fig12Params:
    """Sweep configuration (defaults scaled for CI; dimensionless knobs —
    timeout/τ ratios, line rate — match the paper)."""

    inseq_timeouts_us: tuple = (0, 10, 20, 30, 40, 52, 65, 80, 100)
    reorder_delays_us: tuple = (250, 500, 750)
    rate_gbps: float = 10.0
    ofo_timeout_us: int = 1000  # large, to isolate the inseq knob
    #: Frames-or-time interrupt coalescing: 25 frames sets the NAPI poll
    #: cadence at line rate, giving the paper's ~25-MTU batching floor at
    #: inseq_timeout = 0.
    coalesce_frames: int = 25
    warmup_ms: int = 8
    measure_ms: int = 15
    seed: int = 12


@dataclass
class Fig12Point:
    """One sweep cell."""

    reorder_delay_us: int
    inseq_timeout_us: int
    batching_extent: float
    rx_core_pct: float
    app_core_pct: float
    throughput_gbps: float


#: Sweep axes in loop-nesting order: (point field, params grid field).
POINT_AXES = (("reorder_delay_us", "reorder_delays_us"),
              ("inseq_timeout_us", "inseq_timeouts_us"))


def run_point(params: Fig12Params, *, reorder_delay_us: int,
              inseq_timeout_us: int) -> Fig12Point:
    """One grid point, independently schedulable (see repro.campaign)."""
    return run_cell(params, reorder_delay_us, inseq_timeout_us)


def run_cell(params: Fig12Params, reorder_us: int, inseq_us: int) -> Fig12Point:
    """One (τ, inseq_timeout) measurement."""
    cell = Cell(params.seed, GroKind.JUGGLER, inseq_us=inseq_us,
                ofo_us=params.ofo_timeout_us, cpu=True)
    bed = cell.pair(
        "fabric",
        rate_gbps=params.rate_gbps,
        reorder_delay_ns=reorder_us * US,
        nic_config=NicConfig(coalesce_frames=params.coalesce_frames),
    )
    # Large initial window and receive buffer: the paper measures long
    # steady-state flows, so we skip most of slow start.
    (conn,) = cell.flows(bed.sender, bed.receiver, 1, 1000,
                         TcpConfig(init_cwnd=1 << 20, rx_buffer=8 << 20))
    conn.send(1 << 40)

    window = cell.measure(params.warmup_ms * MS,
                          (params.warmup_ms + params.measure_ms) * MS)
    return Fig12Point(
        reorder_delay_us=reorder_us,
        inseq_timeout_us=inseq_us,
        batching_extent=window.batching,
        rx_core_pct=window.rx_core_pct,
        app_core_pct=window.app_core_pct,
        throughput_gbps=window.goodput_gbps,
    )


def render(points: List[Fig12Point]) -> str:
    """The figure's two panels as one table."""
    rows = [
        (p.reorder_delay_us, p.inseq_timeout_us,
         round(p.batching_extent, 2), round(p.rx_core_pct, 1),
         round(p.app_core_pct, 1), round(p.throughput_gbps, 2))
        for p in points
    ]
    return format_table(
        ["reorder_us", "inseq_timeout_us", "batching_extent_mtus",
         "rx_core_pct", "app_core_pct", "throughput_gbps"],
        rows,
    )
