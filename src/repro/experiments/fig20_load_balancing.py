"""Figure 20: RPC tail latency under three load-balancing granularities.

Setup (§5.3.2 / Figure 19): 8 servers under ToR A send to 8 clients under
ToR B over a 40 Gb/s two-stage Clos with two spine uplinks.  Four pairs run
all-to-all 1 MB RPCs, four pairs all-to-all 150 B RPCs; open-loop Poisson
arrivals; load swept as a fraction of the 80 Gb/s uplink capacity; RPCs are
multiplexed over long-lived sessions per pair.  Receivers run Juggler.

Paper results: past 50% load, per-packet spraying beats per-flow ECMP on
small-RPC 99th-percentile completion time by ≥2×, and beats per-TSO
(Presto-style) spraying by a growing margin (30 µs at 75%, 250 µs at 90%);
large-RPC tails order the same way.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from repro.experiments.cell import Cell
from repro.experiments.common import SHORT_COALESCING
from repro.fabric.routing import (
    EcmpRouting,
    FlowletRouting,
    PerPacketRouting,
    PerTsoRouting,
)
from repro.harness.experiment import GroKind
from repro.harness.metrics import percentiles
from repro.harness.reporting import format_table
from repro.sim.time import MS, US


class LbPolicy(enum.Enum):
    """The load-balancing granularities compared in Figure 20, plus
    CONGA-style flowlet switching (§2.2's related-work alternative, not in
    the paper's figure — included as an extension point of comparison)."""

    ECMP = "per-flow-ecmp"
    PER_TSO = "per-tso"
    PER_PACKET = "per-packet"
    FLOWLET = "flowlet"


@dataclass(frozen=True)
class Fig20Params:
    """Sweep configuration (scaled down: fewer sessions per pair, shorter
    runs; load fractions and RPC sizes match the paper)."""

    #: Load-balancing policies, as :class:`LbPolicy` values.
    policies: tuple = ("per-flow-ecmp", "per-tso", "per-packet")
    loads_pct: tuple = (25, 50, 75, 90)
    large_rpc_bytes: int = 1_000_000
    small_rpc_bytes: int = 150
    large_pairs: int = 4
    small_pairs: int = 4
    sessions_per_pair: int = 2
    #: Aggregate small-RPC load (the paper: 100 Mb/s per server).
    small_load_gbps: float = 0.4
    fabric_gbps: float = 40.0
    n_spines: int = 2
    inseq_timeout_us: int = 13
    ofo_timeout_us: int = 150
    #: Tail-drop only (no ECN marking), the paper's testbed transport
    #: regime; deep queues amplify the policy differences.
    queue_capacity_kb: int = 2048
    warmup_ms: int = 6
    measure_ms: int = 25
    seed: int = 20


@dataclass
class Fig20Point:
    """One (policy, load) cell."""

    policy: LbPolicy
    load_pct: int
    large_p99_ms: float
    large_p50_ms: float
    small_p99_us: float
    small_p50_us: float
    large_rpcs: int
    small_rpcs: int


#: Sweep axes in loop-nesting order: (point field, params grid field).
POINT_AXES = (("policy", "policies"), ("load_pct", "loads_pct"))
#: The load-balancing policies are the arms of one comparison.
PAIRED_AXES = ("policy",)


def _policy_factory(policy: LbPolicy, cell: Cell):
    if policy is LbPolicy.ECMP:
        return EcmpRouting
    if policy is LbPolicy.PER_TSO:
        return PerTsoRouting
    if policy is LbPolicy.FLOWLET:
        return lambda: FlowletRouting(cell.rngs.stream("flowlet"),
                                      flowlet_gap_ns=100_000)
    return lambda: PerPacketRouting(cell.rngs.stream("spray"))


def run_point(params: Fig20Params, *, policy: str,
              load_pct: int) -> Fig20Point:
    """One (policy, load) measurement."""
    policy = LbPolicy(policy)
    cell = Cell(params.seed, GroKind.JUGGLER, inseq_us=params.inseq_timeout_us,
                ofo_us=params.ofo_timeout_us)
    net = cell.clos(
        _policy_factory(policy, cell),
        params.fabric_gbps,
        n_tors=2,
        hosts_per_tor=8,
        n_spines=params.n_spines,
        nic_config=SHORT_COALESCING,
        queue_capacity_bytes=params.queue_capacity_kb * 1024,
    )
    large, small = cell.rpc_mix(
        net.hosts[:8], net.hosts[8:], params,
        params.n_spines * params.fabric_gbps * load_pct / 100.0)
    warmup_cut = params.warmup_ms * MS
    cell.measure(warmup_cut, (params.warmup_ms + params.measure_ms) * MS)

    large_lat = [r.latency_ns for r in large.records if r.start_ns >= warmup_cut]
    small_lat = [r.latency_ns for r in small.records if r.start_ns >= warmup_cut]
    large_p99, large_p50 = percentiles(large_lat, (99, 50))
    small_p99, small_p50 = percentiles(small_lat, (99, 50))
    return Fig20Point(
        policy=policy,
        load_pct=load_pct,
        large_p99_ms=large_p99 / MS,
        large_p50_ms=large_p50 / MS,
        small_p99_us=small_p99 / US,
        small_p50_us=small_p50 / US,
        large_rpcs=len(large_lat),
        small_rpcs=len(small_lat),
    )


def render(points: List[Fig20Point]) -> str:
    """Both panels of the figure as one table."""
    rows = [
        (p.policy.value, p.load_pct, round(p.large_p99_ms, 2),
         round(p.large_p50_ms, 2), round(p.small_p99_us, 1),
         round(p.small_p50_us, 1), p.large_rpcs, p.small_rpcs)
        for p in points
    ]
    return format_table(
        ["policy", "load_pct", "large_p99_ms", "large_p50_ms",
         "small_p99_us", "small_p50_us", "n_large", "n_small"],
        rows,
    )
