"""Where should reordering resilience live: host, fabric, or both?

Juggler is the *host-side* answer to datacenter reordering — absorb it
below the transport.  Flowcut switching is the *fabric-side* answer —
never create it in the first place, by pinning each flowcut to one path
until it provably drains (see :mod:`repro.fabric.flowcut`).  This family
runs the two against and with each other on the two-stage Clos
(ROADMAP item 4):

* **engine** — ``juggler`` (resilient host stack) or ``standard``
  (give-up-and-flush GRO): whether the *host* absorbs reordering.
* **routing** — ``ecmp`` (never reorders, never balances),
  ``per_packet`` (ideal balance, reorders freely), ``flowlet``
  (gap-heuristic pinning — balances well, reorders under congestion),
  ``flowcut`` (exact-drain pinning — balances adaptively, cannot
  reorder): whether the *fabric* avoids reordering.
* **load** — offered load as a fraction of uplink capacity; path skew
  (and with it flowlet's failure mode) grows with load.
* **fault** — periodic ``queue_saturation`` windows on one uplink,
  forcing congestion-aware policies to route around a sick path.

The interesting diagonal: (standard × flowcut) is "resilience in the
fabric", (juggler × per_packet) is "resilience in the host", and the
corners show what each buys alone.  Every ToR also runs the sketch-based
reordering detector (:mod:`repro.fabric.detector`), so each row reports
what an in-network observer *measured* — the telemetry half of item 4.

Determinism mirrors ``cc_reordering``: each cell derives one seed from
``(params.seed, load, fault)`` — deliberately *not* the engine or the
routing policy, so all eight (engine × routing) arms of a (load, fault)
cell face byte-identical workload and fabric randomness — and all
randomness flows through named ``sim.rng`` streams.  Same seed ⇒
byte-identical rows, whatever the worker count or result store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.flush import FlushReason
from repro.experiments.cell import Cell
from repro.experiments.common import SHORT_COALESCING
from repro.fabric.detector import DetectorConfig, ReorderDetector
from repro.fabric.routing import (
    EcmpRouting,
    FlowletRouting,
    PerPacketRouting,
)
from repro.faults.controller import FaultEngine
from repro.faults.plan import FaultPlan
from repro.harness.metrics import percentiles
from repro.harness.reporting import format_table
from repro.sim.rng import derive_cell_seed
from repro.sim.time import MS, US

#: Load level -> offered load as % of aggregate uplink capacity.
LOAD_LEVELS: Dict[int, int] = {1: 40, 2: 65, 3: 85}

#: Fault level -> (queue_saturation params, window_us); level 0 is clean.
#: The fault clamps the tor0→spine0 uplink's buffer, making one path sick
#: — adaptive policies should shift flowcuts away from it, ECMP cannot.
FAULT_LEVELS: Dict[int, Optional[tuple]] = {
    0: None,
    1: ({"capacity_bytes": 16_000}, 1000),
    2: ({"capacity_bytes": 6_000}, 1000),
}

#: Fault-window cadence (µs), matching the resilience matrix.
_PERIOD_US = 2_000

ROUTINGS = ("ecmp", "per_packet", "flowlet", "flowcut")


@dataclass(frozen=True)
class HostFabricParams:
    """Sweep configuration."""

    engines: tuple = ("juggler", "standard")
    routings: tuple = ROUTINGS
    loads: tuple = (1, 3)
    faults: tuple = (0, 1)
    n_tors: int = 2
    hosts_per_tor: int = 4
    n_spines: int = 2
    fabric_gbps: float = 40.0
    large_rpc_bytes: int = 512_000
    small_rpc_bytes: int = 150
    large_pairs: int = 2
    small_pairs: int = 2
    sessions_per_pair: int = 2
    small_load_gbps: float = 0.4
    queue_capacity_kb: int = 512
    inseq_timeout_us: int = 13
    ofo_timeout_us: int = 150
    detector_budget_bytes: int = 8192
    detector_heavy_kb: int = 10
    warmup_ms: int = 4
    measure_ms: int = 20
    seed: int = 77


@dataclass
class HostFabricPoint:
    """One (engine, routing, load, fault) cell."""

    engine: str
    routing: str
    load: int
    fault: int
    goodput_gbps: float
    small_p99_us: float
    small_p50_us: float
    large_p99_ms: float
    #: Out-of-order segments the TCP receivers saw — what got *through*
    #: both the fabric's and the host's defenses.
    tcp_ooo_segments: int
    ofo_timeout_flushes: int
    #: GRO batching extent (MTUs per delivered segment).
    batching: float
    #: Max/mean bytes across ToR→spine uplinks (1.0 = perfect balance).
    uplink_imbalance: float
    #: Path pinnings created by flowlet/flowcut policies (0 otherwise).
    pins: int
    #: Drained re-pins that changed path.
    moves: int
    drops: int
    retx_packets: int
    #: Reordered data packets the in-network detectors counted.
    det_reordered: int
    #: Flows the detectors reported as heavy reorderers.
    det_heavy: int


#: Sweep axes in loop-nesting order: (point field, params grid field).
POINT_AXES = (("engine", "engines"),
              ("routing", "routings"),
              ("load", "loads"),
              ("fault", "faults"))
#: The arms of one paired comparison: they pick no randomness, so every
#: arm of a cell draws the same seed (see repro.sim.rng.derive_cell_seed).
PAIRED_AXES = ("engine", "routing")


def _policy_factory(routing: str, cell: Cell):
    rngs = cell.rngs
    if routing == "ecmp":
        return EcmpRouting
    if routing == "per_packet":
        return lambda: PerPacketRouting(rngs.stream("spray"))
    if routing == "flowlet":
        return lambda: FlowletRouting(rngs.stream("flowlet"),
                                      flowlet_gap_ns=100_000,
                                      engine=cell.engine)
    if routing == "flowcut":
        from repro.fabric.flowcut import FlowcutRouting

        return lambda: FlowcutRouting(rngs.stream("flowcut"))
    raise ValueError(f"unknown routing {routing!r}; known: {ROUTINGS}")


def run_point(params: HostFabricParams, *, engine: str, routing: str,
              load: int, fault: int) -> HostFabricPoint:
    """One grid cell, independently schedulable (see repro.campaign)."""
    if load not in LOAD_LEVELS:
        raise ValueError(f"unknown load level {load!r}; "
                         f"known: {sorted(LOAD_LEVELS)}")
    if fault not in FAULT_LEVELS:
        raise ValueError(f"unknown fault level {fault!r}; "
                         f"known: {sorted(FAULT_LEVELS)}")
    cell_seed = derive_cell_seed(
        params.seed, "host_vs_fabric", POINT_AXES, PAIRED_AXES,
        {"engine": engine, "routing": routing, "load": load,
         "fault": fault})
    cell = Cell(cell_seed, engine, inseq_us=params.inseq_timeout_us,
                ofo_us=params.ofo_timeout_us)
    detector_cfg = DetectorConfig(
        memory_budget_bytes=params.detector_budget_bytes,
        heavy_threshold_bytes=params.detector_heavy_kb * 1024,
    )
    net = cell.clos(
        _policy_factory(routing, cell),
        params.fabric_gbps,
        n_tors=params.n_tors,
        hosts_per_tor=params.hosts_per_tor,
        n_spines=params.n_spines,
        nic_config=SHORT_COALESCING,
        queue_capacity_bytes=params.queue_capacity_kb * 1024,
        detector_factory=lambda: ReorderDetector(detector_cfg),
    )

    warmup_cut = params.warmup_ms * MS
    stop_us = (params.warmup_ms + params.measure_ms) * 1_000
    if FAULT_LEVELS[fault] is not None:
        fault_params, window_us = FAULT_LEVELS[fault]
        plan = FaultPlan.periodic(
            f"host-vs-fabric-l{fault}", f"uplink-saturation-l{fault}",
            "queue_saturation", fault_params, start_us=params.warmup_ms * 1_000,
            stop_us=stop_us, window_us=window_us, every_us=_PERIOD_US,
            seed=cell_seed)
        fault_engine = FaultEngine(cell.engine, plan)
        # The sick path: one specific uplink, same one in every arm.
        fault_engine.bind(links=[net.uplinks[0][0]])
        fault_engine.start()

    large, small = cell.rpc_mix(
        net.hosts[:params.hosts_per_tor],
        net.hosts[params.hosts_per_tor:2 * params.hosts_per_tor],
        params,
        params.n_spines * params.fabric_gbps * LOAD_LEVELS[load] / 100.0)
    window = cell.measure(warmup_cut, stop_us * US)
    totals = cell.totals()

    large_lat = [r.latency_ns for r in large.records
                 if r.start_ns >= warmup_cut]
    small_lat = [r.latency_ns for r in small.records
                 if r.start_ns >= warmup_cut]
    (large_p99,) = percentiles(large_lat, (99,))
    small_p99, small_p50 = percentiles(small_lat, (99, 50))

    uplink_bytes = [l.stats.bytes for row in net.uplinks for l in row]
    mean_bytes = sum(uplink_bytes) / len(uplink_bytes)
    imbalance = (max(uplink_bytes) / mean_bytes) if mean_bytes > 0 else 0.0

    pins = moves = 0
    for tor in net.tors:
        policy = tor.policy
        if routing == "flowcut":
            pins += policy.stats.pins
            moves += policy.stats.moves
        elif routing == "flowlet":
            pins += policy.flowlets_started
            moves += policy.flowlets_moved

    # Count every lossy queue: fabric links *and* the ToRs' host-facing
    # downlinks (finite buffers there drop under incast regardless of
    # routing policy — without them a cell can show OOO with "0 drops").
    drops = sum(l.stats.drops
                for row in net.uplinks + net.downlinks for l in row)
    drops += sum(l.stats.drops for tor in net.tors
                 for l in tor.direct_links())
    det_reordered = sum(d.stats.reordered_packets for d in net.detectors)
    det_heavy = sum(len(d.heavy_reorderers()) for d in net.detectors)

    return HostFabricPoint(
        engine=engine,
        routing=routing,
        load=load,
        fault=fault,
        goodput_gbps=round(window.goodput_gbps, 4),
        small_p99_us=round(small_p99 / US, 1),
        small_p50_us=round(small_p50 / US, 1),
        large_p99_ms=round(large_p99 / MS, 3),
        tcp_ooo_segments=sum(c.receiver.ooo_segments for c in cell.conns),
        ofo_timeout_flushes=cell.flush_reasons().get(
            FlushReason.OFO_TIMEOUT, 0),
        batching=round(totals.batching, 3),
        uplink_imbalance=round(imbalance, 4),
        pins=pins,
        moves=moves,
        drops=drops,
        retx_packets=totals.retransmits,
        det_reordered=det_reordered,
        det_heavy=det_heavy,
    )


def render(points: List[HostFabricPoint]) -> str:
    """The family as one table."""
    rows = [
        (p.engine, p.routing, p.load, p.fault, p.goodput_gbps,
         p.small_p99_us, p.small_p50_us, p.large_p99_ms,
         p.tcp_ooo_segments, p.ofo_timeout_flushes, p.batching,
         p.uplink_imbalance, p.pins, p.moves, p.drops, p.retx_packets,
         p.det_reordered, p.det_heavy)
        for p in points
    ]
    return format_table(
        ["engine", "routing", "load", "fault", "goodput_gbps",
         "small_p99_us", "small_p50_us", "large_p99_ms", "tcp_ooo",
         "ofo_flush", "batching", "imbalance", "pins", "moves", "drops",
         "retx", "det_reord", "det_heavy"],
        rows,
    )
