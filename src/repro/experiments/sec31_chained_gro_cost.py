"""§3.1's rejected-design measurement: linked-list batching costs ~50% more
CPU than frags[] merging on plain in-order traffic.

"We implemented this approach and found that it causes 50% more CPU usage
due to more cache misses in a simple experiment with in-order traffic."

One flow at line rate over an uncontended path (the NetFPGA rig with zero
added delay, so there is no reordering); compare total receiver CPU across
the three GRO engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.experiments.cell import Cell
from repro.harness.experiment import GroKind
from repro.harness.reporting import format_table
from repro.nic.nic import NicConfig
from repro.sim.time import MS
from repro.tcp.config import TcpConfig


@dataclass(frozen=True)
class Sec31Params:
    """Experiment configuration."""

    #: GRO engines, as :class:`GroKind` values.
    kinds: tuple = ("vanilla", "chained", "juggler")
    rate_gbps: float = 10.0
    inseq_timeout_us: int = 52
    warmup_ms: int = 6
    measure_ms: int = 15
    seed: int = 31


@dataclass
class Sec31Point:
    """One engine's cost on in-order traffic."""

    kind: GroKind
    rx_core_pct: float
    app_core_pct: float
    total_pct: float
    batching_extent: float
    throughput_gbps: float


#: Sweep axes: (point field, params grid field).
POINT_AXES = (("kind", "kinds"),)
#: The engines are the arms of one comparison: they share a seed.
PAIRED_AXES = ("kind",)


def run_point(params: Sec31Params, *, kind: str) -> Sec31Point:
    """Measure one GRO engine."""
    kind = GroKind.of(kind)
    cell = Cell(params.seed, kind, inseq_us=params.inseq_timeout_us,
                ofo_us=400, cpu=True)
    bed = cell.pair(
        "unused",
        rate_gbps=params.rate_gbps,
        reorder_delay_ns=0,  # both NetFPGA queues equal: in-order delivery
        nic_config=NicConfig(coalesce_frames=25),
    )
    (conn,) = cell.flows(bed.sender, bed.receiver, 1, 1000,
                         TcpConfig(init_cwnd=1 << 20, rx_buffer=8 << 20))
    conn.send(1 << 40)

    window = cell.measure(params.warmup_ms * MS,
                          (params.warmup_ms + params.measure_ms) * MS)
    return Sec31Point(
        kind=kind,
        rx_core_pct=window.rx_core_pct,
        app_core_pct=window.app_core_pct,
        total_pct=window.rx_core_pct + window.app_core_pct,
        batching_extent=window.batching,
        throughput_gbps=window.goodput_gbps,
    )


def chained_overhead_pct(points: List[Sec31Point]) -> Optional[float]:
    """Extra total CPU of linked-list batching over vanilla, in percent;
    None unless ``points`` hold both engines."""
    by_kind = {p.kind: p for p in points}
    if GroKind.VANILLA not in by_kind or GroKind.CHAINED not in by_kind:
        return None
    vanilla = by_kind[GroKind.VANILLA].total_pct
    chained = by_kind[GroKind.CHAINED].total_pct
    if vanilla <= 0:
        return 0.0
    return 100.0 * (chained - vanilla) / vanilla


def render(points: List[Sec31Point]) -> str:
    """The comparison as a table plus the headline ratio."""
    rows = [
        (p.kind.value, round(p.rx_core_pct, 1), round(p.app_core_pct, 1),
         round(p.total_pct, 1), round(p.batching_extent, 1),
         round(p.throughput_gbps, 2))
        for p in points
    ]
    table = format_table(
        ["engine", "rx_core_pct", "app_core_pct", "total_pct",
         "batching", "throughput_gbps"],
        rows,
    )
    overhead = chained_overhead_pct(points)
    if overhead is None:
        return table
    return (f"{table}\n\nlinked-list chaining overhead vs vanilla: "
            f"{overhead:.1f}% (paper: ~50%)")
