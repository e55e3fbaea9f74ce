"""Busy-time accumulation for one modelled core."""

from __future__ import annotations


class CoreMeter:
    """Accumulates nanoseconds of busy time for one core.

    Experiments measure utilisation as the difference of two
    :attr:`busy_ns` readings over a window (see ``Cell.measure``).
    """

    def __init__(self, name: str = "core"):
        self.name = name
        # det: allow(float-ns) -- accumulator of fractional modeled work, not an event timestamp; never feeds back into scheduling
        self._busy_ns = 0.0

    @property
    def busy_ns(self) -> float:
        """Total busy nanoseconds since construction."""
        return self._busy_ns

    def charge(self, ns: float) -> None:
        """Add ``ns`` nanoseconds of work."""
        if ns < 0:
            raise ValueError(f"cannot charge negative work: {ns}")
        self._busy_ns += ns
