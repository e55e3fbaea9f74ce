"""Figure 14: 99th-percentile RPC completion time vs ``ofo_timeout`` under
packet loss.

Setup (§5.2.1): 10 KB RPC messages stream through the NetFPGA switch
(reordering τ ∈ {250, 500, 750} µs); the client drops 0.1% of packets
uniformly at random *before* they enter Juggler.  Sweep ``ofo_timeout`` and
measure the 99th-percentile completion time.

Paper result: the tail is flat while ``ofo_timeout`` stays below ≈ τ − τ₀
and "starts to grow rapidly" beyond — a larger timeout only delays the
moment TCP learns about a genuine loss, because the packets behind the hole
sit in Juggler's OOO queue instead of triggering duplicate ACKs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.cell import Cell
from repro.harness.experiment import GroKind
from repro.harness.metrics import percentiles
from repro.harness.reporting import format_table
from repro.nic.nic import NicConfig
from repro.sim.time import MS, US
from repro.tcp.config import TcpConfig
from repro.workloads.rpc import PingPongRpc


@dataclass(frozen=True)
class Fig14Params:
    """Sweep configuration."""

    ofo_timeouts_us: tuple = (50, 100, 200, 400, 600, 800, 1000)
    reorder_delays_us: tuple = (250, 500, 750)
    rate_gbps: float = 10.0
    rpc_bytes: int = 10_000
    drop_p: float = 0.001
    inseq_timeout_us: int = 52
    coalesce_us: int = 125
    #: Streamed RPC channel depth: a stalled message head-of-line blocks the
    #: ones queued behind it, as in the paper's continuous RPC stream.
    pipeline: int = 4
    duration_ms: int = 150
    seed: int = 14


@dataclass
class Fig14Point:
    """One sweep cell."""

    reorder_delay_us: int
    ofo_timeout_us: int
    p99_latency_us: float
    median_latency_us: float
    rpcs_completed: int


#: Sweep axes in loop-nesting order: (point field, params grid field).
POINT_AXES = (("reorder_delay_us", "reorder_delays_us"),
              ("ofo_timeout_us", "ofo_timeouts_us"))


def run_point(params: Fig14Params, *, reorder_delay_us: int,
              ofo_timeout_us: int) -> Fig14Point:
    """One grid point, independently schedulable (see repro.campaign)."""
    return run_cell(params, reorder_delay_us, ofo_timeout_us)


def run_cell(params: Fig14Params, reorder_us: int, ofo_us: int) -> Fig14Point:
    """One (τ, ofo_timeout) measurement."""
    cell = Cell(params.seed, GroKind.JUGGLER,
                inseq_us=params.inseq_timeout_us, ofo_us=ofo_us)
    bed = cell.pair(
        "fabric",
        rate_gbps=params.rate_gbps,
        reorder_delay_ns=reorder_us * US,
        drop_p=params.drop_p,
        nic_config=NicConfig(coalesce_ns=params.coalesce_us * US),
    )
    (conn,) = cell.flows(bed.sender, bed.receiver, 1, 1000, TcpConfig())
    workload = PingPongRpc(cell.engine, conn, rpc_bytes=params.rpc_bytes,
                           pipeline=params.pipeline)
    workload.start()
    cell.measure(0, params.duration_ms * MS)

    latencies = workload.latencies_ns()
    p99, p50 = percentiles(latencies, (99, 50))
    return Fig14Point(
        reorder_delay_us=reorder_us,
        ofo_timeout_us=ofo_us,
        p99_latency_us=p99 / US,
        median_latency_us=p50 / US,
        rpcs_completed=len(latencies),
    )


def render(points: List[Fig14Point]) -> str:
    """The figure's three panels as one table."""
    rows = [
        (p.reorder_delay_us, p.ofo_timeout_us,
         round(p.p99_latency_us, 1), round(p.median_latency_us, 1),
         p.rpcs_completed)
        for p in points
    ]
    return format_table(
        ["reorder_us", "ofo_timeout_us", "p99_latency_us",
         "median_latency_us", "rpcs"],
        rows,
    )
