"""The metrics registry: counters and gauges.

Components *register into* one :class:`MetricsRegistry` instead of growing
bespoke counter bags: :class:`~repro.core.stats.GroStats` binds its counters
as gauges and :class:`~repro.sim.engine.Engine` exposes its event-loop totals.
A snapshot of the whole registry is one dict, ready for a report table or a
JSON artifact.
"""

from __future__ import annotations

from typing import Callable, Dict


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (default 1)."""
        self.value += n


class Gauge:
    """A named probe read at snapshot time."""

    __slots__ = ("name", "probe")

    def __init__(self, name: str, probe: Callable[[], float]):
        self.name = name
        self.probe = probe

    def read(self) -> float:
        """Evaluate the probe now."""
        return self.probe()


class MetricsRegistry:
    """Named metrics, one namespace per tracer (or standalone)."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str, probe: Callable[[], float]) -> Gauge:
        """Register (or re-point) the gauge ``name`` at ``probe``.

        Re-registration replaces the probe: experiment sweeps rebuild their
        components per cell, and the gauge should follow the live instance.
        """
        gauge = Gauge(name, probe)
        self._gauges[name] = gauge
        return gauge

    def snapshot(self) -> dict:
        """Every metric's current value as one plain dict."""
        out: dict = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, gauge in self._gauges.items():
            out[name] = gauge.read()
        return out

    def render(self) -> str:
        """Aligned ``name value`` lines, sorted by name."""
        snap = self.snapshot()
        if not snap:
            return "(no metrics registered)"
        width = max(len(name) for name in snap)
        lines = []
        for name in sorted(snap):
            value = snap[name]
            if isinstance(value, float):
                value = round(value, 4)
            lines.append(f"{name.ljust(width)}  {value}")
        return "\n".join(lines)
