"""Figure 18: achieved vs guaranteed bandwidth, sweeping the guarantee.

Setup (§5.3.1 / Figure 17): one target flow with guarantee B against 7
unconstrained antagonist flows across a 40 Gb/s two-priority bottleneck;
α = 0.1; B swept from 5 to 30 Gb/s; 30-run averages in the paper.

Paper results:

* with Juggler the achieved bandwidth tracks B closely until the receiver
  hits the CPU limit of a single core (~25 Gb/s in their testbed);
* the vanilla kernel lands far below the guarantee, with high variance;
* the target flow never drops below its ~5 Gb/s fair share even when B is
  smaller, because at p = 0 it is just another TCP flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.cell import Cell
from repro.experiments.fig01_bandwidth_guarantee import (
    guarantee_rig,
    throughput_sampler,
)
from repro.harness.experiment import GroKind
from repro.harness.metrics import mean
from repro.harness.reporting import format_table
from repro.sim.time import MS


@dataclass(frozen=True)
class Fig18Params:
    """Sweep configuration."""

    #: GRO kernels, as :class:`GroKind` values.
    kinds: tuple = ("juggler", "vanilla")
    guarantees_gbps: tuple = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    line_rate_gbps: float = 40.0
    alpha: float = 0.1
    inseq_timeout_us: int = 13
    ofo_timeout_us: int = 200
    ramp_ms: int = 30
    measure_ms: int = 40
    sample_ms: int = 5
    seed: int = 18


@dataclass
class Fig18Point:
    """One (kernel, guarantee) cell."""

    kind: GroKind
    guarantee_gbps: float
    achieved_gbps: float
    stdev_gbps: float
    app_core_pct: float


#: Sweep axes in loop-nesting order: (point field, params grid field).
POINT_AXES = (("kind", "kinds"), ("guarantee_gbps", "guarantees_gbps"))
#: The kernels are the arms of one comparison: they share a seed.
PAIRED_AXES = ("kind",)


def run_point(params: Fig18Params, *, kind: str,
              guarantee_gbps: float) -> Fig18Point:
    """One kernel × guarantee measurement."""
    kind = GroKind.of(kind)
    cell = Cell(params.seed, kind, inseq_us=params.inseq_timeout_us,
                ofo_us=params.ofo_timeout_us, cpu=True)
    bed, target, controller = guarantee_rig(
        cell, params.line_rate_gbps, guarantee_gbps, params.alpha, 8)
    # Model the receiver's per-core CPU limit (the paper's ~25 Gb/s knee).
    cell.measure_host(bed.receivers[0])

    controller.start()
    # The probe's byte baseline is taken at the cut, after the ramp.
    cell.engine.run_until(params.ramp_ms * MS)
    probe = throughput_sampler(cell, target, params.sample_ms * MS)
    window = cell.measure(params.ramp_ms * MS,
                          (params.ramp_ms + params.measure_ms) * MS)

    values = probe.values()
    mu = mean(values)
    stdev = (
        (sum((v - mu) ** 2 for v in values) / (len(values) - 1)) ** 0.5
        if len(values) > 1 else 0.0
    )
    return Fig18Point(
        kind=kind,
        guarantee_gbps=guarantee_gbps,
        achieved_gbps=mu,
        stdev_gbps=stdev,
        app_core_pct=window.app_core_pct,
    )


def render(points: List[Fig18Point]) -> str:
    """The figure's two curves as one table."""
    rows = [
        (p.kind.value, p.guarantee_gbps, round(p.achieved_gbps, 2),
         round(p.stdev_gbps, 2), round(min(p.app_core_pct, 100.0), 1))
        for p in points
    ]
    return format_table(
        ["kernel", "guarantee_gbps", "achieved_gbps", "stdev",
         "app_core_pct"],
        rows,
    )
