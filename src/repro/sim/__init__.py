"""Discrete-event simulation substrate.

The paper evaluates Juggler on 10/40 Gb/s hardware testbeds.  This package
provides the pure-Python replacement: an integer-nanosecond event engine that
the NIC, fabric, TCP and CPU models are driven by.  Everything in the
reproduction is deterministic given a seed.
"""

from repro.sim.time import NS, US, MS, SEC, format_time
from repro.sim.event import EventHandle
from repro.sim.engine import Engine, SimulationError
from repro.sim.rng import RngRegistry
from repro.sim.timer import Timer

__all__ = [
    "NS",
    "US",
    "MS",
    "SEC",
    "format_time",
    "EventHandle",
    "Engine",
    "SimulationError",
    "RngRegistry",
    "Timer",
]
