"""Figure 15: how many flows Juggler actually needs to track.

Setup (§5.2.2, NetFPGA testbed): N concurrent flows totalling 10 Gb/s into
4 RX queues, reordering fixed at 250 µs – 1 ms; sample the number of active
flows (build-up + active-merging lists) and report the 99th percentile.

Paper result: the active count grows slowly with concurrency and reordering,
peaks below ~35, and *drops* past 256 concurrent flows because low-rate
flows send single-MTU TSO bursts that reordering cannot split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.cell import Cell
from repro.harness.experiment import GroKind
from repro.harness.metrics import Sampler, percentile
from repro.harness.reporting import format_table
from repro.nic.nic import NicConfig
from repro.sim.time import MS, US
from repro.tcp.config import TcpConfig


@dataclass(frozen=True)
class Fig15Params:
    """Sweep configuration."""

    concurrent_flows: tuple = (64, 128, 256, 512, 1024)
    reorder_delays_us: tuple = (250, 500, 750, 1000)
    total_gbps: float = 10.0
    num_rx_queues: int = 4
    inseq_timeout_us: int = 52
    #: Large table so the *demand* is observable without eviction clipping.
    table_capacity: int = 4096
    sample_interval_us: int = 50
    warmup_ms: int = 5
    measure_ms: int = 25
    seed: int = 15


@dataclass
class Fig15Point:
    """One sweep cell."""

    concurrent_flows: int
    reorder_delay_us: int
    p99_active_flows: float
    mean_active_flows: float
    max_active_flows: int


#: Sweep axes in loop-nesting order: (point field, params grid field).
POINT_AXES = (("reorder_delay_us", "reorder_delays_us"),
              ("concurrent_flows", "concurrent_flows"))


def run_point(params: Fig15Params, *, reorder_delay_us: int,
              concurrent_flows: int) -> Fig15Point:
    """One grid point, independently schedulable (see repro.campaign)."""
    return run_cell(params, concurrent_flows, reorder_delay_us)


def run_cell(params: Fig15Params, nflows: int, reorder_us: int) -> Fig15Point:
    """One (N, τ) measurement."""
    cell = Cell(params.seed, GroKind.JUGGLER,
                inseq_us=params.inseq_timeout_us,
                ofo_us=max(2 * reorder_us, 100),
                table_capacity=params.table_capacity)
    bed = cell.pair(
        "fabric",
        rate_gbps=params.total_gbps,
        reorder_delay_ns=reorder_us * US,
        nic_config=NicConfig(num_queues=params.num_rx_queues,
                             coalesce_frames=25),
    )
    # The start offsets come from the switch's own stream, drawn before
    # the switch routes its first packet.
    cell.paced_flows([bed.sender], bed.receiver, nflows, params.total_gbps,
                     5000, TcpConfig(init_cwnd=1 << 18),
                     cell.rngs.stream("fabric"), 1 << 40)

    def probe() -> float:
        return sum(
            q.gro.active_list_len for q in bed.receiver.nic.queues
        )

    sampler = Sampler(cell.engine, probe, params.sample_interval_us * US)
    cell.engine.schedule(params.warmup_ms * MS, sampler.start)
    cell.measure(params.warmup_ms * MS,
                 (params.warmup_ms + params.measure_ms) * MS)

    values = sampler.values()
    return Fig15Point(
        concurrent_flows=nflows,
        reorder_delay_us=reorder_us,
        p99_active_flows=percentile(values, 99),
        mean_active_flows=sum(values) / len(values) if values else 0.0,
        max_active_flows=int(max(values)) if values else 0,
    )


def render(points: List[Fig15Point]) -> str:
    """The figure's curves as one table."""
    rows = [
        (p.reorder_delay_us, p.concurrent_flows,
         round(p.p99_active_flows, 1), round(p.mean_active_flows, 2),
         p.max_active_flows)
        for p in points
    ]
    return format_table(
        ["reorder_us", "concurrent_flows", "p99_active", "mean_active",
         "max_active"],
        rows,
    )
