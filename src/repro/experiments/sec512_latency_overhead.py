"""§5.1.2: Juggler adds no latency to short RPCs without reordering.

"one client sends 150 Byte RPC messages to a server, with no competing
traffic in the network ... the median end-to-end latency is the same, with
and without Juggler."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.cell import Cell
from repro.harness.experiment import GroKind
from repro.harness.metrics import percentiles
from repro.harness.reporting import format_table
from repro.nic.nic import NicConfig
from repro.sim.time import MS, US
from repro.workloads.rpc import PingPongRpc


@dataclass(frozen=True)
class Sec512Params:
    """Experiment configuration."""

    #: GRO kernels, as :class:`GroKind` values.
    kinds: tuple = ("juggler", "vanilla")
    rpc_bytes: int = 150
    rate_gbps: float = 40.0
    duration_ms: int = 40
    seed: int = 512


@dataclass
class Sec512Point:
    """One kernel's RPC latency distribution."""

    kind: GroKind
    median_us: float
    p99_us: float
    rpcs: int


#: Sweep axes: (point field, params grid field).
POINT_AXES = (("kind", "kinds"),)
#: The kernels are the arms of one comparison: they share a seed.
PAIRED_AXES = ("kind",)


def run_point(params: Sec512Params, *, kind: str) -> Sec512Point:
    """Closed-loop small RPCs over an idle network."""
    kind = GroKind.of(kind)
    cell = Cell(params.seed, kind, inseq_us=13, ofo_us=100)
    bed = cell.pair(
        "unused",
        rate_gbps=params.rate_gbps,
        reorder_delay_ns=0,
        nic_config=NicConfig(coalesce_ns=10_000, coalesce_frames=4),
    )
    (conn,) = cell.flows(bed.sender, bed.receiver, 1, 1000)
    workload = PingPongRpc(cell.engine, conn, rpc_bytes=params.rpc_bytes)
    workload.start()
    cell.measure(0, params.duration_ms * MS)

    latencies = workload.latencies_ns()
    p50, p99 = percentiles(latencies, (50, 99))
    return Sec512Point(
        kind=kind,
        median_us=p50 / US,
        p99_us=p99 / US,
        rpcs=len(latencies),
    )


def render(points: List[Sec512Point]) -> str:
    """Medians side by side."""
    rows = [(p.kind.value, round(p.median_us, 2), round(p.p99_us, 2), p.rpcs)
            for p in points]
    return format_table(["kernel", "median_us", "p99_us", "rpcs"], rows)
