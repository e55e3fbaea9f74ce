"""Helpers shared by the per-figure experiment modules: the host CPU model
a :class:`~repro.experiments.cell.Cell` attaches on request, sweep-grid
iteration, and the Gb/s conversion.  Cell construction and the measurement
window live in :mod:`repro.experiments.cell`."""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, Sequence, Tuple

from repro.fabric.host import Host
from repro.nic.nic import NicConfig
from repro.sim.engine import Engine

#: Adaptive-style coalescing on the 40G testbeds: a short time window, so
#: ACK-side latency does not dominate the (tiny) fabric RTT.
SHORT_COALESCING = NicConfig(num_queues=1, coalesce_ns=30_000,
                             coalesce_frames=32)


class HostCpu:
    """RX-core accountant + application core for one measured host."""

    def __init__(self, engine: Engine, name: str = "host"):
        from repro.cpu.accounting import GroCpuAccountant
        from repro.cpu.core import CpuCore
        from repro.cpu.meter import CoreMeter

        self.rx_meter = CoreMeter(f"{name}.rx")
        self.accountant = GroCpuAccountant(self.rx_meter)
        self.app_core = CpuCore(engine, f"{name}.app")

    def attach(self, host: Host) -> None:
        """Couple the app core to the host's TCP endpoints."""
        host.app_core = self.app_core


def grid_points(axes: Sequence[Tuple[str, str]],
                params) -> Iterator[Dict[str, object]]:
    """Iterate a sweep grid in row-major (outer-axis-first) order.

    ``axes`` is the module's ordered ``(axis_name, params_field)`` pairs;
    each yielded dict maps axis names to one grid point's values.  The
    sweep modules' ``run()`` loops and the campaign runner's task
    expansion both iterate through here, so a campaign report lists rows
    in exactly the order the serial sweep would.
    """
    values = [getattr(params, field) for _, field in axes]
    names = [axis for axis, _ in axes]
    for combo in itertools.product(*values):
        yield dict(zip(names, combo))


def gbps(nbytes: int, window_ns: int) -> float:
    """Convert a byte count over a window into Gb/s."""
    if window_ns <= 0:
        return 0.0
    return nbytes * 8 / window_ns
