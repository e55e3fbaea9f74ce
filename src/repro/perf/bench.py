"""The pinned microbenchmark suite.

Each bench is deterministic in *work* (seeded workload, fixed iteration
counts) and measured in wall-clock; the reported value is the best of
``rounds`` repetitions, which is the standard way to suppress scheduler
noise when benchmarking a hot loop.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.config import JugglerConfig
from repro.core.juggler import JugglerGRO
from repro.core.standard_gro import StandardGRO
from repro.fabric.detector import DetectorConfig, ReorderDetector
from repro.net.addr import FiveTuple
from repro.net.constants import MAX_TSO_PAYLOAD, MSS
from repro.net.tso import segment_tso_burst
from repro.perf import workloads
from repro.sim.engine import Engine


@dataclass(frozen=True)
class BenchSpec:
    """One registered microbenchmark."""

    name: str
    unit: str
    #: True: bigger value is better (a rate) — all six today; the gate
    #: and ``BENCH_core.json`` carry the flag per row.
    higher_is_better: bool
    #: Returns (work_items, elapsed_seconds).
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


def _bench_engine_events() -> tuple:
    return _timed_rate(
        lambda: workloads.engine_event_churn(Engine, _CHURN_EVENTS))


# -- fabric benches -----------------------------------------------------------

_DETECTOR_PKTS_PER_FLOW = 400


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


# -- net benches --------------------------------------------------------------

_TSO_BURSTS = 2_000


def _bench_tso_burst() -> tuple:
    flow = FiveTuple(1, 2, 1000, 80)

    def work() -> int:
        cut = 0
        for burst in range(_TSO_BURSTS):
            cut += len(segment_tso_burst(
                flow, burst * MAX_TSO_PAYLOAD, MAX_TSO_PAYLOAD,
                sent_at=burst, options=(), push_last=True,
                is_retransmission=False, tso_id=burst))
        return cut
    items, elapsed = _timed_rate(work)
    assert items == _TSO_BURSTS * (MAX_TSO_PAYLOAD // MSS)
    return items, elapsed


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
            "fabric.detector_update", "pkts/s", True,
            _bench_detector_update,
            "sketch detector observe per packet over a reordered "
            "256-flow stream at the default memory budget"),
        BenchSpec(
            "net.tso_burst", "pkts/s", True,
            _bench_tso_burst,
            "packets cut from back-to-back 44-MSS TSO bursts, called as "
            "TcpSender calls it"),
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
            value = items / elapsed
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
