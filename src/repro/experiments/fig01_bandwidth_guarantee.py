"""Figure 1: bandwidth guarantee via dynamic packet scheduling — time series.

Setup (§2.1 / Figure 17): 8 flows share a 40 Gb/s strict-priority
bottleneck.  Before t=0 everything runs at low priority and each flow gets
~5 Gb/s.  At t=0 the marking controller starts on one flow with a 20 Gb/s
guarantee, adapting p ← p + α(Rt − Rm).

Paper result: with Juggler, the target flow "quickly achieves the desired
throughput"; the vanilla kernel "has widely variable throughput because of
its inability to handle packet reordering" (mixing priorities reorders the
flow's own packets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.experiments.cell import Cell
from repro.harness.experiment import GroKind
from repro.harness.metrics import Sampler, ThroughputProbe, mean
from repro.harness.reporting import format_table
from repro.qos.bandwidth_guarantee import BandwidthGuaranteeController
from repro.sim.time import MS
from repro.tcp.config import TcpConfig
from repro.tcp.connection import Connection


@dataclass(frozen=True)
class Fig01Params:
    """Experiment configuration (durations scaled from the paper's ±2 s)."""

    #: GRO kernels, as :class:`GroKind` values.
    kinds: tuple = ("juggler", "vanilla")
    line_rate_gbps: float = 40.0
    guarantee_gbps: float = 20.0
    num_flows: int = 8
    alpha: float = 0.1
    inseq_timeout_us: int = 13
    ofo_timeout_us: int = 100
    before_ms: int = 20
    after_ms: int = 50
    sample_ms: int = 2
    seed: int = 1


@dataclass
class Fig01Point:
    """The target flow's throughput time series for one kernel."""

    kind: GroKind
    #: (time_ns, Gb/s) samples; the controller starts at t = before_ms.
    series: List[Tuple[int, float]] = field(default_factory=list)
    start_ns: int = 0

    def before_mean(self) -> float:
        """Average throughput before the controller starts."""
        return mean([v for t, v in self.series if t <= self.start_ns])

    def after_mean(self) -> float:
        """Average throughput once the controller has had time to converge
        (second half of the after-period)."""
        settle = self.start_ns + (self.series[-1][0] - self.start_ns) // 2
        return mean([v for t, v in self.series if t >= settle])

    def after_stdev(self) -> float:
        """Throughput variability after convergence."""
        settle = self.start_ns + (self.series[-1][0] - self.start_ns) // 2
        values = [v for t, v in self.series if t >= settle]
        if len(values) < 2:
            return 0.0
        mu = mean(values)
        return (sum((v - mu) ** 2 for v in values) / (len(values) - 1)) ** 0.5


def guarantee_rig(cell: Cell, line_rate_gbps: float, guarantee_gbps: float,
                  alpha: float, num_flows: int):
    """Figure 17's workload on ``cell`` (shared with Figure 18): one target
    flow under the marking controller against ``num_flows - 1``
    unconstrained antagonists across the two-priority bottleneck.

    Returns ``(testbed, target connection, controller)``; the caller
    decides when the controller starts.
    """
    bed = cell.dumbbell(line_rate_gbps)
    # Default (10-MSS) initial window: the flows must find their fair share
    # through ordinary congestion control at the finite bottleneck buffer.
    tcp = TcpConfig(rx_buffer=8 << 20)
    (target,) = cell.flows(bed.senders[0], bed.receivers[0], 1, 4000, tcp)
    controller = BandwidthGuaranteeController(
        cell.engine,
        target.sender,
        cell.rngs.stream("marking"),
        target_gbps=guarantee_gbps,
        line_rate_gbps=line_rate_gbps,
        alpha=alpha,
    )
    target.sender.priority_fn = controller.priority_fn
    target.send(1 << 42)
    for conn in cell.flows(bed.senders[1], bed.receivers[1], num_flows - 1,
                           4100, tcp):
        conn.send(1 << 42)
    return bed, target, controller


def throughput_sampler(cell: Cell, conn: Connection,
                       sample_ns: int) -> Sampler:
    """Start sampling ``conn``'s goodput every ``sample_ns``; the byte
    baseline is taken now."""
    probe = Sampler(cell.engine,
                    ThroughputProbe(lambda: conn.delivered_bytes, sample_ns),
                    sample_ns)
    probe.start()
    return probe


#: Sweep axes: (point field, params grid field).
POINT_AXES = (("kind", "kinds"),)
#: The kernels are the arms of one comparison: they share a seed.
PAIRED_AXES = ("kind",)


def run_point(params: Fig01Params, *, kind: str) -> Fig01Point:
    """The time series for one kernel."""
    kind = GroKind.of(kind)
    cell = Cell(params.seed, kind, inseq_us=params.inseq_timeout_us,
                ofo_us=params.ofo_timeout_us)
    _, target, controller = guarantee_rig(
        cell, params.line_rate_gbps, params.guarantee_gbps, params.alpha,
        params.num_flows)
    start_ns = params.before_ms * MS
    probe = throughput_sampler(cell, target, params.sample_ms * MS)
    cell.engine.schedule(start_ns, controller.start)
    cell.measure(start_ns, (params.before_ms + params.after_ms) * MS)

    return Fig01Point(kind=kind, series=probe.samples, start_ns=start_ns)


def render(results: List[Fig01Point]) -> str:
    """Summary statistics of the two panels."""
    rows = [
        (r.kind.value, round(r.before_mean(), 2), round(r.after_mean(), 2),
         round(r.after_stdev(), 2))
        for r in results
    ]
    return format_table(
        ["kernel", "before_gbps(≈fair 5)", "after_gbps(target 20)",
         "after_stdev"],
        rows,
    )
