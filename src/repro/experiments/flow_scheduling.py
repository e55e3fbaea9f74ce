"""Extension experiment: end-host flow scheduling (the §2.1 pFabric use
case the paper motivates but does not evaluate).

A heavy-tailed mix of short (mice) and long (elephant) flows shares a
two-priority bottleneck.  End hosts mark packets PIAS-style — a flow's
first ``threshold`` bytes ride high priority, the rest low — so mice finish
ahead of the elephants they'd otherwise queue behind.  Because a flow's
priority changes mid-stream, its packets straddle both switch queues and
reorder; the experiment compares the scheduling benefit with a Juggler
receiver against a vanilla one, and against no prioritisation at all.

Expected shape: prioritisation slashes mice flow-completion times (FCT)
when the receiver is reordering-resilient; with the vanilla receiver the
reordering tax eats into the benefit (and hurts the elephants).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.experiments.cell import Cell
from repro.harness.experiment import GroKind
from repro.harness.metrics import percentile, percentiles
from repro.harness.reporting import format_table
from repro.qos.flow_scheduling import PiasMarker
from repro.sim.time import MS, US
from repro.tcp.config import TcpConfig
from repro.tcp.connection import Connection

#: The flow-size mix: a fraction of mice, the rest elephants.
MICE_BYTES = 50_000
ELEPHANT_BYTES = 2_000_000
MICE_FRACTION = 0.8


@dataclass(frozen=True)
class SchedulingParams:
    """Workload and fabric configuration."""

    #: ``marking/kernel`` configs: no prioritisation or PIAS marking, with
    #: a Juggler or a vanilla receiver.
    configs: tuple = ("none/juggler", "pias/juggler", "pias/vanilla")
    #: Offered load as a fraction of the 40 Gb/s bottleneck.
    load: float = 0.7
    line_rate_gbps: float = 40.0
    #: PIAS demotion threshold: mice never leave the high-priority queue.
    threshold_bytes: int = 100_000
    inseq_timeout_us: int = 13
    ofo_timeout_us: int = 200
    warmup_ms: int = 8
    measure_ms: int = 30
    seed: int = 2026


@dataclass
class SchedulingPoint:
    """One (marking, kernel) configuration's FCT statistics."""

    label: str
    mice_p50_us: float
    mice_p99_us: float
    elephant_p99_ms: float
    mice_done: int
    elephants_done: int


@dataclass
class _FlowRecord:
    size: int
    started: int
    finished: Optional[int] = None


#: Sweep axes: (point field, params grid field).
POINT_AXES = (("config", "configs"),)
#: The configs are the arms of one comparison: they share a seed.
PAIRED_AXES = ("config",)


def run_point(params: SchedulingParams, *, config: str) -> SchedulingPoint:
    """One ``marking/kernel`` configuration of the mice/elephants
    experiment."""
    marking, _, kernel = config.partition("/")
    if marking not in ("none", "pias"):
        raise ValueError(f"unknown marking {marking!r} in config "
                         f"{config!r}; known: none, pias")
    kind = GroKind(kernel)
    prioritize = marking == "pias"
    cell = Cell(params.seed, kind, inseq_us=params.inseq_timeout_us,
                ofo_us=params.ofo_timeout_us)
    engine = cell.engine
    arrival_rng = cell.rngs.stream("arrivals")
    bed = cell.dumbbell(params.line_rate_gbps)
    tcp = TcpConfig(rx_buffer=8 << 20)
    records: List[_FlowRecord] = []
    mean_size = (MICE_FRACTION * MICE_BYTES
                 + (1 - MICE_FRACTION) * ELEPHANT_BYTES)
    mean_gap_ns = mean_size * 8 / (params.line_rate_gbps * params.load)
    next_port = [10_000]

    def launch_flow() -> None:
        mouse = arrival_rng.random() < MICE_FRACTION
        size = MICE_BYTES if mouse else ELEPHANT_BYTES
        sender_host = bed.senders[next_port[0] % 2]
        receiver_host = bed.receivers[next_port[0] % 2]
        record = _FlowRecord(size, engine.now)
        records.append(record)

        def on_bytes(watermark, now, record=record, size=size):
            if record.finished is None and watermark >= size:
                record.finished = now

        conn = Connection(engine, sender_host, receiver_host,
                          next_port[0], 80, tcp, on_bytes=on_bytes)
        next_port[0] += 1
        if prioritize:
            conn.sender.priority_fn = PiasMarker(
                params.threshold_bytes).priority_fn
        conn.send(size)
        engine.schedule(
            max(1, round(arrival_rng.expovariate(1.0 / mean_gap_ns))),
            launch_flow)

    launch_flow()
    cell.measure(params.warmup_ms * MS,
                 (params.warmup_ms + params.measure_ms) * MS)

    done = [r for r in records
            if r.finished is not None and r.started >= params.warmup_ms * MS]
    mice = [r.finished - r.started for r in done if r.size == MICE_BYTES]
    elephants = [r.finished - r.started for r in done
                 if r.size == ELEPHANT_BYTES]
    mice_p50, mice_p99 = percentiles(mice, (50, 99))
    return SchedulingPoint(
        label=config,
        mice_p50_us=mice_p50 / US,
        mice_p99_us=mice_p99 / US,
        elephant_p99_ms=percentile(elephants, 99) / MS,
        mice_done=len(mice),
        elephants_done=len(elephants),
    )


def render(points: List[SchedulingPoint]) -> str:
    """FCT comparison table."""
    rows = [
        (p.label, round(p.mice_p50_us, 1), round(p.mice_p99_us, 1),
         round(p.elephant_p99_ms, 2), p.mice_done, p.elephants_done)
        for p in points
    ]
    return format_table(
        ["config", "mice_p50_us", "mice_p99_us", "elephant_p99_ms",
         "n_mice", "n_eleph"],
        rows,
    )
