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
constantly leave and re-enter Juggler.  The family's one axis is the
labelled configs of all three studies (:data:`STUDIES`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.flush import FlushReason
from repro.experiments.cell import Cell
from repro.harness.experiment import GroKind
from repro.harness.reporting import format_table
from repro.nic.nic import NicConfig
from repro.sim.time import MS, US
from repro.tcp.config import TcpConfig


#: The stress scenario's aggregate offered load.
TOTAL_GBPS = 10.0

#: Each study's labelled configs, in render order: label -> overrides of
#: the paper's ``JugglerConfig`` design, plus ``reorder_delay_us`` where a
#: study pins the switch's delay.  The build-up study runs at 60 µs: the
#: optimisation only pays off for stragglers that arrive while the
#: re-entering flow is still inside its first polling interval, so delays
#: much longer than a poll mask it.
STUDIES: Dict[str, Dict[str, dict]] = {
    "Build-up phase": {
        f"buildup={'on' if enabled else 'off'}":
            dict(enable_buildup=enabled, reorder_delay_us=60)
        for enabled in (True, False)},
    "Eviction policy": {
        f"evict={policy}": dict(eviction_policy=policy)
        for policy in ("inactive_first", "fifo", "active_first")},
    "gro_table size": {
        f"capacity={capacity}": dict(table_capacity=capacity)
        for capacity in (2, 4, 8, 16, 64)},
}
CONFIGS: Dict[str, dict] = {label: overrides
                            for study in STUDIES.values()
                            for label, overrides in study.items()}


@dataclass(frozen=True)
class AblationParams:
    """Shared stress-scenario configuration."""

    configs: tuple = tuple(CONFIGS)
    num_flows: int = 64
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


#: Sweep axes: (point field, params grid field).
POINT_AXES = (("config", "configs"),)
#: The configs are the arms of one comparison: they share a seed.
PAIRED_AXES = ("config",)


def run_point(params: AblationParams, *, config: str) -> AblationPoint:
    """The stress scenario under one labelled config of :data:`STUDIES`."""
    if config not in CONFIGS:
        raise ValueError(f"unknown ablation config {config!r}; "
                         f"known: {list(CONFIGS)}")
    ablated = dict(CONFIGS[config])
    reorder_delay_us = ablated.pop("reorder_delay_us",
                                   params.reorder_delay_us)
    cell = Cell(
        params.seed, GroKind.JUGGLER,
        inseq_us=params.inseq_timeout_us,
        ofo_us=params.ofo_timeout_us,
        **{"table_capacity": params.table_capacity, **ablated},
    )
    # One stream feeds both the switch and the flows' start offsets.
    bed = cell.pair(
        "workload",
        rate_gbps=TOTAL_GBPS,
        reorder_delay_ns=reorder_delay_us * US,
        nic_config=NicConfig(num_queues=1, coalesce_frames=25),
    )
    cell.paced_flows([bed.sender], bed.receiver, params.num_flows,
                     TOTAL_GBPS, 5000, TcpConfig(init_cwnd=1 << 17),
                     cell.rngs.stream("workload"), 1 << 38)
    total = cell.measure(0, params.duration_ms * MS)
    return AblationPoint(
        label=config,
        segments_per_packet=(total.segments / total.packets
                             if total.packets else 0.0),
        ooo_fraction=(total.ooo_segments / total.segments
                      if total.segments else 0.0),
        ofo_timeout_flushes=cell.flush_reasons().get(
            FlushReason.OFO_TIMEOUT, 0),
        evictions=total.evictions,
        throughput_gbps=total.goodput_gbps,
    )


def _table(points: List[AblationPoint]) -> str:
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


def render(points: List[AblationPoint]) -> str:
    """One section per study that has points."""
    sections = []
    for title, configs in STUDIES.items():
        mine = [p for p in points if p.label in configs]
        if mine:
            sections.append(f"{title}:\n{_table(mine)}")
    return "\n\n".join(sections)
