"""Ablations of Juggler's design choices (DESIGN.md §5).

1. **Build-up phase** (Remark 1): letting ``seq_next`` move backwards while
   a (re-entering) flow's first polling interval completes.  The paper
   measured ~6% fewer segments up the stack with the optimisation.
2. **Eviction policy** (§4.3): inactive-first vs naive FIFO vs the
   adversarial active-first inversion.  Evicting flows whose queues have
   holes strands their peers waiting for timeouts (Figure 8).
3. **gro_table size** (§5.2.2): how small can the table get before
   forced evictions start hurting batching and reordering protection.

All three run the same stress scenario: many concurrent flows through the
NetFPGA reordering switch with a deliberately small table, so flows
constantly leave and re-enter Juggler.
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
class AblationParams:
    """Shared stress-scenario configuration."""

    num_flows: int = 64
    total_gbps: float = 10.0
    reorder_delay_us: int = 250
    inseq_timeout_us: int = 52
    ofo_timeout_us: int = 400
    table_capacity: int = 8
    duration_ms: int = 30
    seed: int = 77


@dataclass
class AblationPoint:
    """One configuration's outcome."""

    label: str
    segments_per_packet: float
    ooo_fraction: float
    ofo_timeout_flushes: int
    evictions: int
    throughput_gbps: float


def _run_stress(params: AblationParams, **ablated) -> AblationPoint:
    """The stress scenario with the ``JugglerConfig`` fields in ``ablated``
    overriding the paper's design."""
    cell = Cell(
        params.seed, GroKind.JUGGLER,
        inseq_us=params.inseq_timeout_us,
        ofo_us=params.ofo_timeout_us,
        **{"table_capacity": params.table_capacity, **ablated},
    )
    # One stream feeds both the switch and the flows' start offsets.
    bed = cell.pair(
        "workload",
        rate_gbps=params.total_gbps,
        reorder_delay_ns=params.reorder_delay_us * US,
        nic_config=NicConfig(num_queues=1, coalesce_frames=25),
    )
    cell.paced_flows([bed.sender], bed.receiver, params.num_flows,
                     params.total_gbps, 5000, TcpConfig(init_cwnd=1 << 17),
                     cell.rngs.stream("workload"), 1 << 38)
    total = cell.measure(0, params.duration_ms * MS)
    return AblationPoint(
        label="",
        segments_per_packet=(total.segments / total.packets
                             if total.packets else 0.0),
        ooo_fraction=(total.ooo_segments / total.segments
                      if total.segments else 0.0),
        ofo_timeout_flushes=cell.flush_reasons().get(
            FlushReason.OFO_TIMEOUT, 0),
        evictions=total.evictions,
        throughput_gbps=total.goodput_gbps,
    )


def run_buildup_ablation(
        params: AblationParams = AblationParams(reorder_delay_us=60),
) -> List[AblationPoint]:
    """With vs without the build-up phase.

    Defaults to 60 µs reordering: the optimisation only pays off for
    stragglers that arrive while the re-entering flow is still inside its
    first polling interval, so delays much longer than a poll mask it.
    """
    points = []
    for enabled in (True, False):
        point = _run_stress(params, enable_buildup=enabled)
        point.label = "buildup=on" if enabled else "buildup=off"
        points.append(point)
    return points


def run_eviction_ablation(
        params: AblationParams = AblationParams()) -> List[AblationPoint]:
    """The paper's eviction order vs naive FIFO vs adversarial inversion."""
    points = []
    for policy in ("inactive_first", "fifo", "active_first"):
        point = _run_stress(params, eviction_policy=policy)
        point.label = f"evict={policy}"
        points.append(point)
    return points


def run_table_size_ablation(
        params: AblationParams = AblationParams(),
        capacities: tuple = (2, 4, 8, 16, 64)) -> List[AblationPoint]:
    """Sweeping gro_table capacity."""
    points = []
    for capacity in capacities:
        point = _run_stress(params, table_capacity=capacity)
        point.label = f"capacity={capacity}"
        points.append(point)
    return points


def render(points: List[AblationPoint]) -> str:
    """Any ablation's rows."""
    rows = [
        (p.label, round(p.segments_per_packet, 4), round(p.ooo_fraction, 4),
         p.ofo_timeout_flushes, p.evictions, round(p.throughput_gbps, 2))
        for p in points
    ]
    return format_table(
        ["config", "segs_per_pkt", "ooo_frac", "ofo_flushes", "evictions",
         "throughput_gbps"],
        rows,
    )


if __name__ == "__main__":
    print("Build-up phase ablation:")
    print(render(run_buildup_ablation()))
    print("\nEviction policy ablation:")
    print(render(run_eviction_ablation()))
    print("\nTable size ablation:")
    print(render(run_table_size_ablation()))
