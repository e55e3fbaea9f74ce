"""Self-inflicted reordering: steering policy × flow count × churn × engine.

"Why Does Flow Director Cause Packet Reordering?" (PAPERS.md) showed that a
NIC can reorder a flow all by itself: Flow Director migrates a flow's rule
between RX queues while packets are in flight, and the two queues' private
GRO/NAPI pipelines race the segments up the stack.  The fabric delivers
every packet in order; the *receiver* manufactures the reordering.  This
family measures that pathology with the fabric held innocent (the default
``reorder_delay_us`` is 0) and only the steering layer varying:

* **policy** — ``rss`` (stateless, cannot migrate), ``flow_director``
  (sampled-install affinity rules + churn), ``static`` (explicit pins, the
  control arm).
* **flow_count** — concurrent flows sharing the receiver's queue set.
* **churn** — steering-rebalance intensity, driven through the fault
  catalog's ``steering_churn`` kind so the same knob works in chaos plans
  (0 = never, escalating cadence/fraction up to periodic table flushes).
* **engine** — which GRO variant absorbs the cross-queue interleave
  (Juggler's ofo machinery vs standard GRO's give-up-and-flush).

Determinism mirrors ``repro.faults.experiments``: each cell derives one
seed from ``(params.seed, flow_count, churn)`` — deliberately *not* the
policy or engine, so every arm faces byte-identical workload and fabric
randomness — and all randomness flows through named ``sim.rng`` streams.
Same seed ⇒ byte-identical rows, whatever the worker count or result
store (the campaign fingerprint relies on this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.flush import FlushReason
from repro.experiments.cell import Cell
from repro.faults.plan import FaultPlan
from repro.harness.metrics import percentiles
from repro.harness.reporting import format_table
from repro.net.addr import FiveTuple
from repro.nic.nic import NicConfig
from repro.sim.rng import derive_cell_seed
from repro.sim.time import MS, US
from repro.steer.flow_director import FlowDirectorConfig, FlowDirectorSteering
from repro.steer.policy import RssSteering, SteeringPolicy
from repro.steer.static import StaticAffinitySteering
from repro.tcp.config import TcpConfig

#: Churn level -> (steering_churn params, window period in us).  Level 0 is
#: "no churn" (no fault plan at all); the top level periodically flushes
#: the whole rule table — the driver-reset mass migration.
CHURN_LEVELS: Dict[int, Optional[tuple]] = {
    0: None,
    1: ({"migrate_fraction": 0.25, "flush_table": False}, 5_000),
    2: ({"migrate_fraction": 0.5, "flush_table": False}, 2_000),
    3: ({"migrate_fraction": 1.0, "flush_table": True}, 2_000),
}


@dataclass(frozen=True)
class FdirParams:
    """Sweep configuration."""

    policies: tuple = ("rss", "flow_director", "static")
    flow_counts: tuple = (8, 32)
    churn_levels: tuple = (0, 2)
    engines: tuple = ("juggler", "standard")
    rate_gbps: float = 10.0
    #: The fabric stays in-order by default: reordering in the results is
    #: the steering layer's own doing.
    reorder_delay_us: int = 0
    num_queues: int = 4
    rpc_bytes: int = 10_000
    load_fraction: float = 0.5
    inseq_timeout_us: int = 52
    ofo_timeout_us: int = 300
    coalesce_us: int = 125
    table_capacity: int = 8
    #: Flow Director knobs: a small table and a fast sampler keep install /
    #: eviction dynamics visible at simulation-sized flow counts.
    fdir_table_size: int = 256
    fdir_sample_rate: int = 4
    fdir_groups: int = 64
    duration_ms: int = 30
    warmup_ms: int = 4
    seed: int = 77


@dataclass
class FdirPoint:
    """One (policy, flow_count, churn, engine) cell."""

    policy: str
    flow_count: int
    churn: int
    engine: str
    goodput_gbps: float
    p99_latency_us: float
    rpcs_completed: int
    #: Steering rules that moved a live flow between queues.
    migrations: int
    #: Packets that landed on a different queue than the flow's previous
    #: packet (the reordering-capable handoffs).
    cross_queue_events: int
    rule_evictions: int
    #: Out-of-order segments seen by the TCP receivers — the end-to-end
    #: proof the reordering reached the transport.
    tcp_ooo_segments: int
    ofo_timeout_flushes: int
    gro_evictions: int
    #: Max/mean delivered-packets ratio across RX queues (1.0 = balanced).
    queue_imbalance: float
    packets_dropped: int


#: Sweep axes in loop-nesting order: (point field, params grid field).
POINT_AXES = (("policy", "policies"),
              ("flow_count", "flow_counts"),
              ("churn", "churn_levels"),
              ("engine", "engines"))
#: The arms of one paired comparison: they pick no randomness, so every
#: arm of a cell draws the same seed (see repro.sim.rng.derive_cell_seed).
PAIRED_AXES = ("policy", "engine")


def churn_plan(churn: int, *, start_us: int, stop_us: int,
               seed: int) -> Optional[FaultPlan]:
    """The periodic ``steering_churn`` plan for one churn level."""
    if churn not in CHURN_LEVELS:
        raise ValueError(
            f"unknown churn level {churn!r}; known: {sorted(CHURN_LEVELS)}")
    preset = CHURN_LEVELS[churn]
    if preset is None:
        return None
    params, period_us = preset
    return FaultPlan.periodic(
        f"fdir-churn-l{churn}", f"steering-churn-l{churn}", "steering_churn",
        params, start_us=start_us, stop_us=stop_us,
        window_us=min(100, period_us), every_us=period_us, seed=seed)


def build_policy(policy: str, params: FdirParams, rng,
                 flows: List[FiveTuple]) -> SteeringPolicy:
    """One cell's steering policy instance (per-NIC, freshly built)."""
    if policy == "rss":
        return RssSteering()
    if policy == "flow_director":
        return FlowDirectorSteering(
            FlowDirectorConfig(table_size=params.fdir_table_size,
                               sample_rate=params.fdir_sample_rate,
                               groups=params.fdir_groups),
            rng=rng,
        )
    if policy == "static":
        pins = {flow: i % params.num_queues
                for i, flow in enumerate(flows)}
        return StaticAffinitySteering(pins)
    raise ValueError(f"unknown steering policy: {policy!r}")


def run_point(params: FdirParams, *, policy: str, flow_count: int,
              churn: int, engine: str) -> FdirPoint:
    """One grid cell, independently schedulable (see repro.campaign)."""
    cell_seed = derive_cell_seed(
        params.seed, "fdir_reordering", POINT_AXES, PAIRED_AXES,
        {"policy": policy, "flow_count": flow_count, "churn": churn,
         "engine": engine})
    cell = Cell(cell_seed, engine, inseq_us=params.inseq_timeout_us,
                ofo_us=params.ofo_timeout_us,
                table_capacity=params.table_capacity)
    flows = [FiveTuple(0, 1, 1_000 + i, 80) for i in range(flow_count)]
    steering = build_policy(policy, params, cell.rngs.stream("steer"), flows)
    bed = cell.pair(
        "fabric",
        rate_gbps=params.rate_gbps,
        reorder_delay_ns=params.reorder_delay_us * US,
        nic_config=NicConfig(coalesce_ns=params.coalesce_us * US,
                             num_queues=params.num_queues),
        fault_plan=churn_plan(churn, seed=cell_seed,
                              start_us=params.warmup_ms * 1_000,
                              stop_us=params.duration_ms * 1_000),
        receiver_steering=steering,
    )
    conns = cell.flows(bed.sender, bed.receiver, flow_count, 1_000,
                       TcpConfig())
    workload = cell.rpc_load(conns, "workload", params.rpc_bytes,
                             params.load_fraction * params.rate_gbps)

    warmup_ns = params.warmup_ms * MS
    window = cell.measure(warmup_ns, params.duration_ms * MS)
    latencies = [r.latency_ns for r in workload.records
                 if r.end_ns >= warmup_ns]
    p99 = percentiles(latencies, (99,))[0] if latencies else 0.0
    counters = steering.counters()
    nic = bed.receiver.nic
    return FdirPoint(
        policy=policy,
        flow_count=flow_count,
        churn=churn,
        engine=engine,
        goodput_gbps=round(window.goodput_gbps, 4),
        p99_latency_us=round(p99 / US, 1),
        rpcs_completed=len(latencies),
        migrations=counters.get("migrations", 0),
        cross_queue_events=counters.get("cross_queue_events", 0),
        rule_evictions=counters.get("rule_evictions", 0),
        tcp_ooo_segments=sum(c.receiver.ooo_segments for c in conns),
        ofo_timeout_flushes=cell.flush_reasons().get(
            FlushReason.OFO_TIMEOUT, 0),
        gro_evictions=cell.totals().evictions,
        queue_imbalance=round(nic.imbalance(), 3),
        packets_dropped=nic.dropped + (bed.faults.dropped
                                       if bed.faults is not None else 0),
    )


def render(points: List[FdirPoint]) -> str:
    """The family as one table."""
    rows = [
        (p.policy, p.flow_count, p.churn, p.engine,
         round(p.goodput_gbps, 3), round(p.p99_latency_us, 1),
         p.rpcs_completed, p.migrations, p.cross_queue_events,
         p.tcp_ooo_segments, p.ofo_timeout_flushes,
         round(p.queue_imbalance, 2), p.packets_dropped)
        for p in points
    ]
    return format_table(
        ["policy", "flows", "churn", "engine", "goodput_gbps", "p99_us",
         "rpcs", "migr", "xqueue", "tcp_ooo", "ofo_flush", "imbal",
         "dropped"],
        rows,
    )
