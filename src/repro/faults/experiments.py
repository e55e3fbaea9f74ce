"""The resilience matrix: fault kind × intensity × GRO engine.

Each cell rebuilds the NetFPGA reordering rig (Figure 11), multiplexes an
open-loop Poisson RPC load over several connections, arms a periodic-window
fault plan generated from ``(kind, intensity)`` presets, and measures what
the paper's Tables 1/2 machinery does under hostile traffic: goodput, p99
RPC completion latency, loss-recovery-phase occupancy, evictions, and the
flush-reason mix.  Sweeping the three engines side by side shows where
Juggler's bounded-table lifecycle wins (and what it costs) relative to
standard GRO and the Presto-style unbounded variant.

Determinism: every cell derives one seed from
``(params.seed, fault_kind, intensity)`` — deliberately *not* the engine
name, so the three engines face identical fabric and workload randomness —
and all randomness flows through named ``sim.rng`` streams.  Same seed ⇒
byte-identical result rows, which the campaign fingerprinting relies on.

Run with ``JUGGLER_SANITIZE=1`` to hold every Juggler engine of every cell
to the Table 1 / Table 2 / §4.3 spec (:mod:`repro.analysis.spec`) after
every poll.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.config import JugglerConfig
from repro.core.flush import FlushReason
from repro.experiments.cell import Cell
from repro.faults.plan import KINDS, FaultPlan
from repro.harness.experiment import make_gro_factory
from repro.harness.metrics import Sampler, percentiles
from repro.harness.reporting import format_table
from repro.nic.nic import NicConfig
from repro.sim.rng import derive_cell_seed
from repro.sim.time import MS, US
from repro.tcp.config import TcpConfig

#: Per-kind intensity presets, levels 1..3: (params, window_us).  Faults
#: whose damage is parametric keep a fixed 1 ms window and escalate their
#: parameters; faults whose only knob is exposure escalate the window.
_PRESETS: Dict[str, tuple] = {
    "loss": (({"p": 0.002}, 1000), ({"p": 0.01}, 1000), ({"p": 0.05}, 1000)),
    "burst_loss": (
        ({"p_enter": 0.02, "p_exit": 0.4, "p_loss_bad": 0.2}, 1000),
        ({"p_enter": 0.05, "p_exit": 0.3, "p_loss_bad": 0.5}, 1000),
        ({"p_enter": 0.10, "p_exit": 0.2, "p_loss_bad": 0.9}, 1000),
    ),
    "duplicate": (({"p": 0.01}, 1000), ({"p": 0.05}, 1000),
                  ({"p": 0.20}, 1000)),
    "corrupt": (({"p": 0.002}, 1000), ({"p": 0.01}, 1000),
                ({"p": 0.05}, 1000)),
    "jitter": (
        ({"p": 0.05, "extra_us_max": 100}, 1000),
        ({"p": 0.20, "extra_us_max": 300}, 1000),
        ({"p": 0.50, "extra_us_max": 800}, 1000),
    ),
    "blackhole": (({}, 50), ({}, 150), ({}, 400)),
    "queue_saturation": (({"capacity_bytes": 32_000}, 1000),
                         ({"capacity_bytes": 16_000}, 1000),
                         ({"capacity_bytes": 4_000}, 1000)),
    "ce_storm": (({"threshold_bytes": 0}, 200),
                 ({"threshold_bytes": 0}, 500),
                 ({"threshold_bytes": 0}, 1000)),
    "ring_overflow": (({"ring_size": 64}, 1000), ({"ring_size": 16}, 1000),
                      ({"ring_size": 4}, 1000)),
    "pause_poll": (({}, 100), ({}, 250), ({}, 600)),
    "steering_churn": (({"migrate_fraction": 0.25}, 1000),
                       ({"migrate_fraction": 0.5}, 1000),
                       ({"migrate_fraction": 1.0, "flush_table": True}, 1000)),
    "receiver_stall": (({}, 100), ({}, 300), ({}, 800)),
}

#: Window period: every fault re-opens on this cadence.
_PERIOD_US = 2_000

assert set(_PRESETS) == set(KINDS), "presets must cover the fault catalog"


@dataclass(frozen=True)
class MatrixParams:
    """Sweep configuration."""

    fault_kinds: tuple = tuple(sorted(_PRESETS))
    intensities: tuple = (1, 2, 3)
    engines: tuple = ("juggler", "standard", "presto")
    rate_gbps: float = 10.0
    reorder_delay_us: int = 250
    rpc_bytes: int = 10_000
    #: Offered load as a fraction of the line rate.
    load_fraction: float = 0.5
    concurrent_flows: int = 6
    inseq_timeout_us: int = 52
    ofo_timeout_us: int = 300
    coalesce_us: int = 125
    #: Keep the gro_table slightly oversubscribed so §4.3 eviction
    #: pressure is part of what the matrix measures.
    table_capacity: int = 4
    duration_ms: int = 30
    warmup_ms: int = 4
    sample_interval_us: int = 50
    seed: int = 55


@dataclass
class MatrixPoint:
    """One (fault, intensity, engine) cell."""

    fault_kind: str
    intensity: int
    engine: str
    goodput_gbps: float
    p99_latency_us: float
    rpcs_completed: int
    #: Fraction of occupancy samples with a non-empty loss-recovery list.
    loss_recovery_frac: float
    evictions: int
    ofo_timeout_flushes: int
    #: Fault windows opened during the run.
    faults_injected: int
    #: Packets destroyed by the fault layer (wire + link + NIC drops).
    packets_dropped: int
    #: ``reason:count`` pairs, sorted by reason name.
    flush_mix: str


#: Sweep axes in loop-nesting order: (point field, params grid field).
POINT_AXES = (("fault_kind", "fault_kinds"),
              ("intensity", "intensities"),
              ("engine", "engines"))
#: The arms of one paired comparison: they pick no randomness, so every
#: arm of a cell draws the same seed (see repro.sim.rng.derive_cell_seed).
PAIRED_AXES = ("engine",)


def preset_plan(kind: str, intensity: int, *, start_us: int, stop_us: int,
                seed: int) -> FaultPlan:
    """The periodic-window plan one matrix cell runs under."""
    if kind not in _PRESETS:
        raise ValueError(f"unknown fault kind: {kind!r}")
    if intensity not in (1, 2, 3):
        raise ValueError(f"intensity must be 1, 2 or 3, got {intensity}")
    params, window_us = _PRESETS[kind][intensity - 1]
    return FaultPlan.periodic(
        f"matrix-{kind}-l{intensity}", f"{kind}-l{intensity}", kind, params,
        start_us=start_us, stop_us=stop_us, window_us=window_us,
        every_us=_PERIOD_US, seed=seed)


def gro_factory(engine_name: str, config: JugglerConfig):
    """The per-queue GRO constructor for one engine variant.

    A delegate to :func:`repro.harness.experiment.make_gro_factory`; the
    name is kept for ``benchmarks/e2e/cells.py``, its one remaining caller.
    """
    return make_gro_factory(engine_name, config)


def run_point(params: MatrixParams, *, fault_kind: str, intensity: int,
              engine: str) -> MatrixPoint:
    """One grid cell, independently schedulable (see repro.campaign)."""
    cell_seed = derive_cell_seed(
        params.seed, "faults_matrix", POINT_AXES, PAIRED_AXES,
        {"fault_kind": fault_kind, "intensity": intensity,
         "engine": engine})
    plan = preset_plan(fault_kind, intensity, seed=cell_seed,
                       start_us=params.warmup_ms * 1_000,
                       stop_us=params.duration_ms * 1_000)
    measured = run_scenario(params, plan, engine, cell_seed=cell_seed)
    return MatrixPoint(
        fault_kind=fault_kind,
        intensity=intensity,
        engine=engine,
        **measured,
    )


def run_scenario(params: MatrixParams, plan: FaultPlan, engine_name: str,
                 *, cell_seed: Optional[int] = None) -> dict:
    """Drive one fault plan against one engine variant; measure.

    Shared by the matrix cells and the ``juggler-repro faults run`` CLI
    (which supplies a user plan instead of a preset).  Returns the
    measurement fields of :class:`MatrixPoint`.
    """
    cell = Cell(cell_seed if cell_seed is not None else params.seed,
                engine_name, inseq_us=params.inseq_timeout_us,
                ofo_us=params.ofo_timeout_us,
                table_capacity=params.table_capacity)
    # steering_churn rebalances the NIC's steering policy — against the
    # default single-queue RSS NIC it would be a no-op, so those cells get
    # a multi-queue Flow Director receiver (the substrate that can churn).
    churns = any(s.kind == "steering_churn" for s in plan.faults)
    steering = None
    if churns:
        from repro.steer.flow_director import (
            FlowDirectorConfig,
            FlowDirectorSteering,
        )

        steering = FlowDirectorSteering(FlowDirectorConfig(sample_rate=4),
                                        rng=cell.rngs.stream("steer"))
    bed = cell.pair(
        "fabric",
        rate_gbps=params.rate_gbps,
        reorder_delay_ns=params.reorder_delay_us * US,
        nic_config=NicConfig(coalesce_ns=params.coalesce_us * US,
                             num_queues=4 if churns else 1),
        fault_plan=plan,
        receiver_steering=steering,
    )
    conns = cell.flows(bed.sender, bed.receiver, params.concurrent_flows,
                       1_000, TcpConfig())
    faults = bed.faults
    assert faults is not None
    faults.bind(receivers=[c.receiver for c in conns])
    workload = cell.rpc_load(conns, "workload", params.rpc_bytes,
                             params.load_fraction * params.rate_gbps)

    warmup_ns = params.warmup_ms * MS
    stop_ns = params.duration_ms * MS
    # The occupancy sampler starts at the cut, after every warm-up event.
    cell.engine.run_until(warmup_ns)
    gros = cell.gro_engines()
    sampler = Sampler(
        cell.engine,
        lambda: sum(getattr(g, "loss_recovery_list_len", 0) for g in gros),
        params.sample_interval_us * US,
        stop_at_ns=stop_ns,
    )
    sampler.start()
    window = cell.measure(warmup_ns, stop_ns)

    latencies = [r.latency_ns for r in workload.records
                 if r.end_ns >= warmup_ns]
    p99 = percentiles(latencies, (99,))[0] if latencies else 0.0
    in_recovery = sum(1 for _, v in sampler.samples if v > 0)
    lr_frac = in_recovery / len(sampler.samples) if sampler.samples else 0.0

    flush_reasons = cell.flush_reasons()
    nic_drops = bed.receiver.nic.dropped + sum(
        q.checksum_drops for q in bed.receiver.nic.queues)
    link_drops = sum(link.stats.drops for link in faults.links)
    return {
        "goodput_gbps": round(window.goodput_gbps, 4),
        "p99_latency_us": round(p99 / US, 1),
        "rpcs_completed": len(latencies),
        "loss_recovery_frac": round(lr_frac, 4),
        "evictions": cell.totals().evictions,
        "ofo_timeout_flushes": flush_reasons.get(FlushReason.OFO_TIMEOUT, 0),
        "faults_injected": faults.injected,
        "packets_dropped": faults.dropped + nic_drops + link_drops,
        "flush_mix": ",".join(f"{reason}:{n}" for reason, n in sorted(
            (r.value, n) for r, n in flush_reasons.items())),
    }


def render(points: List[MatrixPoint]) -> str:
    """The matrix as one table."""
    rows = [
        (p.fault_kind, p.intensity, p.engine,
         round(p.goodput_gbps, 3), round(p.p99_latency_us, 1),
         p.rpcs_completed, round(p.loss_recovery_frac, 3), p.evictions,
         p.ofo_timeout_flushes, p.faults_injected, p.packets_dropped)
        for p in points
    ]
    return format_table(
        ["fault", "level", "engine", "goodput_gbps", "p99_us", "rpcs",
         "lr_frac", "evict", "ofo_flush", "windows", "dropped"],
        rows,
    )
