"""The pinned microbenchmark suite.

Each bench is deterministic in *work* (seeded workload, fixed iteration
counts) and measured in wall-clock; the reported value is the best of
``rounds`` repetitions, which is the standard way to suppress scheduler
noise when benchmarking a hot loop.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.cc import make_cc
from repro.cc.rtt import RttEstimator
from repro.core.config import JugglerConfig
from repro.core.juggler import JugglerGRO
from repro.core.standard_gro import StandardGRO
from repro.fabric.detector import DetectorConfig, ReorderDetector
from repro.fabric.flowcut import FlowcutRouting
from repro.net.addr import FiveTuple
from repro.perf import workloads
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.timer import Timer
from repro.steer import FlowDirectorConfig, FlowDirectorSteering, RssSteering
from repro.tcp.config import TcpConfig


@dataclass(frozen=True)
class BenchSpec:
    """One registered microbenchmark."""

    name: str
    unit: str
    #: True: bigger value is better (a rate); False: smaller is better
    #: (a footprint).
    higher_is_better: bool
    #: Returns (work_items, elapsed_seconds) — or, for footprint benches,
    #: (value, None) with the value already in ``unit``.
    run: Callable[[], tuple]
    description: str = ""


@dataclass
class BenchResult:
    """One bench's measured value (best across rounds)."""

    name: str
    unit: str
    higher_is_better: bool
    value: float
    rounds: int


def _timed_rate(work: Callable[[], int]) -> tuple:
    """Run ``work`` once; return (items, elapsed)."""
    gc.collect()
    started = time.perf_counter()
    items = work()
    elapsed = time.perf_counter() - started
    return items, max(elapsed, 1e-9)


# -- GRO receive-path benches -------------------------------------------------

#: Many-flows stream: the Figure 10 shape (256 flows, one queue), the
#: acceptance workload for this optimization pass.
_MANY_FLOWS_PKTS = 100
#: Single-flow stream: the Figure 9 shape.
_SINGLE_FLOW_PKTS = 20_000
_BATCH = 32


def _bench_juggler_many_flows() -> tuple:
    packets = workloads.reordered_stream(workloads.MANY_FLOWS,
                                         _MANY_FLOWS_PKTS)
    gro = JugglerGRO(lambda s: None, config=JugglerConfig())
    items, elapsed = _timed_rate(
        lambda: workloads.drive_gro(gro, packets, batch=_BATCH) or len(packets))
    assert gro.stats.packets == len(packets)
    return items, elapsed


def _bench_juggler_single_flow() -> tuple:
    packets = workloads.reordered_stream(1, _SINGLE_FLOW_PKTS, window=16)
    gro = JugglerGRO(lambda s: None, config=JugglerConfig())
    items, elapsed = _timed_rate(
        lambda: workloads.drive_gro(gro, packets, batch=_BATCH) or len(packets))
    assert gro.stats.packets == len(packets)
    return items, elapsed


def _bench_standard_many_flows() -> tuple:
    packets = workloads.reordered_stream(workloads.MANY_FLOWS,
                                         _MANY_FLOWS_PKTS)
    gro = StandardGRO(lambda s: None)
    return _timed_rate(
        lambda: workloads.drive_gro(gro, packets, batch=_BATCH) or len(packets))


# -- engine benches -----------------------------------------------------------

_CHURN_EVENTS = 200_000
_CHURN_TIMERS = 64
_CHURN_POLLS = 2_000


def _bench_engine_events() -> tuple:
    return _timed_rate(
        lambda: workloads.engine_event_churn(Engine, _CHURN_EVENTS))


def _bench_timer_rearm() -> tuple:
    def work() -> int:
        workloads.timer_rearm_churn(Engine, Timer, _CHURN_TIMERS,
                                    _CHURN_POLLS)
        return _CHURN_TIMERS * _CHURN_POLLS  # re-arm operations
    return _timed_rate(work)


# -- steering benches ---------------------------------------------------------

_STEER_FLOWS = 512
_STEER_LOOKUPS = 200_000
_STEER_QUEUES = 8
#: Rebalance cadence for the churn bench — frequent enough that stale
#: rules, migrations and signature evictions stay a steady fraction of
#: the lookups rather than a warm-up transient.
_STEER_REBALANCE_EVERY = 5_000


def _steer_flows() -> list:
    return [FiveTuple(1 + (i % 16), 99, 10_000 + i, 80)
            for i in range(_STEER_FLOWS)]


def _bench_rss_demux() -> tuple:
    flows = _steer_flows()
    policy = RssSteering()
    policy.bind(_STEER_QUEUES)

    def work() -> int:
        workloads.steering_lookup_churn(policy, flows, _STEER_LOOKUPS)
        return _STEER_LOOKUPS
    return _timed_rate(work)


def _bench_flow_director_churn() -> tuple:
    flows = _steer_flows()
    policy = FlowDirectorSteering(
        FlowDirectorConfig(table_size=256, sample_rate=8))
    policy.bind(_STEER_QUEUES)

    def work() -> int:
        workloads.steering_lookup_churn(policy, flows, _STEER_LOOKUPS,
                                        rebalance_every=_STEER_REBALANCE_EVERY)
        return _STEER_LOOKUPS
    items, elapsed = _timed_rate(work)
    assert policy.migrations > 0 and policy.rule_evictions > 0
    return items, elapsed


# -- fabric benches -----------------------------------------------------------

_FABRIC_FLOWS = 256
_FABRIC_LOOKUPS = 200_000
_DETECTOR_PKTS_PER_FLOW = 400


def _bench_flowcut_route() -> tuple:
    flows = [FiveTuple(1 + (i % 16), 99, 10_000 + i, 80)
             for i in range(_FABRIC_FLOWS)]
    policy = FlowcutRouting(RngRegistry(7).stream("flowcut"),
                            table_capacity=_FABRIC_FLOWS)

    def work() -> int:
        workloads.flowcut_route_churn(policy, flows, _FABRIC_LOOKUPS)
        return _FABRIC_LOOKUPS
    items, elapsed = _timed_rate(work)
    assert policy.stats.pins > 0 and policy.stats.exits > 0
    return items, elapsed


def _bench_detector_update() -> tuple:
    packets = workloads.reordered_stream(workloads.MANY_FLOWS,
                                         _DETECTOR_PKTS_PER_FLOW)
    detector = ReorderDetector(DetectorConfig())

    def work() -> int:
        return workloads.detector_update_churn(detector, packets)
    items, elapsed = _timed_rate(work)
    assert detector.stats.packets == len(packets)
    assert detector.stats.reordered_packets > 0
    return items, elapsed


# -- congestion-control benches -----------------------------------------------

_CC_ACKS = 200_000
_BBR_ROUNDS = 100_000


def _bench_cc_reno_ack_path() -> tuple:
    cc = make_cc("reno", TcpConfig(), RttEstimator())

    def work() -> int:
        workloads.cc_ack_clock(cc, _CC_ACKS)
        return _CC_ACKS
    return _timed_rate(work)


def _bench_cc_bbr_steady_state() -> tuple:
    cc = make_cc("bbr", TcpConfig(cc="bbr"), RttEstimator())

    def work() -> int:
        workloads.bbr_steady_clock(cc, _BBR_ROUNDS)
        return _BBR_ROUNDS
    return _timed_rate(work)


# -- allocation bench ---------------------------------------------------------


def _traced_peak_kb(work) -> float:
    """Peak tracemalloc KB while running ``work`` once."""
    gc.collect()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        work()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1024.0


def _bench_alloc_gro_drive() -> tuple:
    """Peak traced KB through the many-flows drive — the per-packet
    allocation footprint of the GRO hot path.  Lower is better."""
    packets = workloads.reordered_stream(workloads.MANY_FLOWS,
                                         _MANY_FLOWS_PKTS)
    gro = JugglerGRO(lambda s: None, config=JugglerConfig())
    return _traced_peak_kb(
        lambda: workloads.drive_gro(gro, packets, batch=_BATCH)), None


def _bench_alloc_timer_churn() -> tuple:
    """Peak traced KB under sustained hrtimer re-arm churn.

    Every re-arm leaves a cancelled event behind; this is the direct
    measure of tombstone residency in the engine (bounded by compaction,
    unbounded before it).  Lower is better."""
    return _traced_peak_kb(
        lambda: workloads.timer_rearm_churn(Engine, Timer, _CHURN_TIMERS,
                                            _CHURN_POLLS)), None


BENCHES: Dict[str, BenchSpec] = {
    spec.name: spec for spec in (
        BenchSpec(
            "gro.juggler_many_flows", "pkts/s", True,
            _bench_juggler_many_flows,
            "256 reordered flows through JugglerGRO (Figure 10 shape)"),
        BenchSpec(
            "gro.juggler_single_flow", "pkts/s", True,
            _bench_juggler_single_flow,
            "one reordered flow through JugglerGRO (Figure 9 shape)"),
        BenchSpec(
            "gro.standard_many_flows", "pkts/s", True,
            _bench_standard_many_flows,
            "256 reordered flows through StandardGRO"),
        BenchSpec(
            "engine.event_churn", "events/s", True,
            _bench_engine_events,
            "schedule/fire churn through the event engine"),
        BenchSpec(
            "engine.timer_rearm", "rearms/s", True,
            _bench_timer_rearm,
            "hrtimer re-arm churn (cancel + reschedule per poll)"),
        BenchSpec(
            "steer.rss_demux", "lookups/s", True,
            _bench_rss_demux,
            "stateless RSS queue_index over 512 flows, 8 queues"),
        BenchSpec(
            "steer.flow_director_churn", "lookups/s", True,
            _bench_flow_director_churn,
            "Flow Director lookups under periodic rebalance churn "
            "(installs + migrations + signature evictions)"),
        BenchSpec(
            "fabric.flowcut_route", "routes/s", True,
            _bench_flowcut_route,
            "flowcut choose/exit churn over 256 flows, exact drain, "
            "pin + move lifecycle per burst"),
        BenchSpec(
            "fabric.detector_update", "pkts/s", True,
            _bench_detector_update,
            "sketch detector observe per packet over a reordered "
            "256-flow stream at the default memory budget"),
        BenchSpec(
            "cc.reno_ack_path", "acks/s", True,
            _bench_cc_reno_ack_path,
            "RenoCC on_ack clock with periodic fast-retransmit episodes"),
        BenchSpec(
            "cc.bbr_steady_state", "acks/s", True,
            _bench_cc_bbr_steady_state,
            "BBRv1 full model update per ACK at a steady 10 Gb/s pipe"),
        BenchSpec(
            "alloc.gro_drive_peak_kb", "KiB", False,
            _bench_alloc_gro_drive,
            "peak tracemalloc KiB across the many-flows drive"),
        BenchSpec(
            "alloc.timer_churn_peak_kb", "KiB", False,
            _bench_alloc_timer_churn,
            "peak tracemalloc KiB under hrtimer re-arm churn "
            "(tombstone residency)"),
    )
}


def run_benches(
    names: Optional[List[str]] = None,
    *,
    rounds: int = 3,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, BenchResult]:
    """Run the selected benches; report each one's best round."""
    selected = list(BENCHES) if names is None else names
    unknown = [n for n in selected if n not in BENCHES]
    if unknown:
        raise KeyError(f"unknown bench(es): {', '.join(unknown)}")
    results: Dict[str, BenchResult] = {}
    for name in selected:
        spec = BENCHES[name]
        best: Optional[float] = None
        for _ in range(rounds):
            items, elapsed = spec.run()
            value = items if elapsed is None else items / elapsed
            if best is None:
                best = value
            elif spec.higher_is_better:
                best = max(best, value)
            else:
                best = min(best, value)
        assert best is not None
        results[name] = BenchResult(name, spec.unit, spec.higher_is_better,
                                    best, rounds)
        if progress is not None:
            progress(f"  {name:30s} {best:>14,.0f} {spec.unit}")
    return results
