"""Figure 13: single-flow throughput vs ``ofo_timeout``.

Setup (§5.2.1): one TCP flow at 10 Gb/s through the NetFPGA switch with
reordering delay τ ∈ {250, 500, 750} µs; sweep ``ofo_timeout``.

Paper result: the flow loses throughput whenever ``ofo_timeout`` is not at
least comparable to the reordering the network adds — a too-small timeout
flushes genuine out-of-order packets up to TCP, which answers with duplicate
ACKs and spurious fast retransmits.  The knee sits near τ − τ₀, where τ₀ is
the interrupt-coalescing period (125 µs): packets delayed less than the
coalescing window get re-ordered "for free" inside the ring buffer, because
the hole and its filler are processed in the same poll.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.flush import FlushReason
from repro.experiments.cell import Cell
from repro.harness.experiment import GroKind
from repro.harness.reporting import format_table
from repro.nic.nic import NicConfig
from repro.sim.time import MS, US
from repro.tcp.config import TcpConfig


@dataclass(frozen=True)
class Fig13Params:
    """Sweep configuration."""

    ofo_timeouts_us: tuple = (50, 100, 200, 300, 400, 500, 600, 700, 800, 1000)
    reorder_delays_us: tuple = (250, 500, 750)
    rate_gbps: float = 10.0
    inseq_timeout_us: int = 52
    #: Time-only interrupt coalescing, the paper's τ₀ = 125 µs.
    coalesce_us: int = 125
    warmup_ms: int = 8
    measure_ms: int = 15
    seed: int = 13


@dataclass
class Fig13Point:
    """One sweep cell."""

    reorder_delay_us: int
    ofo_timeout_us: int
    throughput_gbps: float
    fast_retransmits: int
    ofo_flushes: int


#: Sweep axes in loop-nesting order: (point field, params grid field).
POINT_AXES = (("reorder_delay_us", "reorder_delays_us"),
              ("ofo_timeout_us", "ofo_timeouts_us"))


def run_point(params: Fig13Params, *, reorder_delay_us: int,
              ofo_timeout_us: int) -> Fig13Point:
    """One grid point, independently schedulable (see repro.campaign)."""
    return run_cell(params, reorder_delay_us, ofo_timeout_us)


def run_cell(params: Fig13Params, reorder_us: int, ofo_us: int) -> Fig13Point:
    """One (τ, ofo_timeout) measurement."""
    cell = Cell(params.seed, GroKind.JUGGLER,
                inseq_us=params.inseq_timeout_us, ofo_us=ofo_us)
    bed = cell.pair(
        "fabric",
        rate_gbps=params.rate_gbps,
        reorder_delay_ns=reorder_us * US,
        nic_config=NicConfig(coalesce_ns=params.coalesce_us * US),
    )
    (conn,) = cell.flows(bed.sender, bed.receiver, 1, 1000,
                         TcpConfig(init_cwnd=1 << 20, rx_buffer=8 << 20))
    conn.send(1 << 40)

    window = cell.measure(params.warmup_ms * MS,
                          (params.warmup_ms + params.measure_ms) * MS)
    return Fig13Point(
        reorder_delay_us=reorder_us,
        ofo_timeout_us=ofo_us,
        throughput_gbps=window.goodput_gbps,
        fast_retransmits=window.fast_retransmits,
        ofo_flushes=cell.flush_reasons().get(FlushReason.OFO_TIMEOUT, 0),
    )


def render(points: List[Fig13Point]) -> str:
    """The figure's three panels as one table."""
    rows = [
        (p.reorder_delay_us, p.ofo_timeout_us,
         round(p.throughput_gbps, 2), p.fast_retransmits, p.ofo_flushes)
        for p in points
    ]
    return format_table(
        ["reorder_us", "ofo_timeout_us", "throughput_gbps",
         "fast_retransmits", "ofo_flushes"],
        rows,
    )
