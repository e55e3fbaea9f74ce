"""Percentiles, histograms and periodic samplers used by every experiment."""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.sim.engine import Engine


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for empty input."""
    if not values:
        return 0.0
    return sum(values) / len(values)


def _check_q(q: float) -> None:
    """Reject a percentile outside [0, 100], whatever the input holds."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")


def _interpolate(ordered: Sequence[float], q: float) -> float:
    """The q-th percentile of an already-sorted, non-empty sequence."""
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation; 0.0 if empty."""
    _check_q(q)
    if not values:
        return 0.0
    return _interpolate(sorted(values), q)


def percentiles(values: Sequence[float], qs: Sequence[float]) -> List[float]:
    """Several percentiles with a single sort.

    Returns one value per entry of ``qs``, in order — report code asking for
    (p50, p99, ...) of the same samples should use this rather than calling
    :func:`percentile` repeatedly, which re-sorts per call.
    """
    for q in qs:
        _check_q(q)
    if not values:
        return [0.0 for _ in qs]
    ordered = sorted(values)
    return [_interpolate(ordered, q) for q in qs]


class Histogram:
    """Fixed-width integer histogram (Figure 16's list-length histograms)."""

    def __init__(self, bin_width: int = 1):
        if bin_width < 1:
            raise ValueError(f"bin_width must be >= 1, got {bin_width}")
        self.bin_width = bin_width
        self._counts: dict[int, int] = {}
        self.total = 0

    def add(self, value: float) -> None:
        """Record one observation."""
        bucket = int(value) // self.bin_width
        self._counts[bucket] = self._counts.get(bucket, 0) + 1
        self.total += 1

    def fraction_at_most(self, value: float) -> float:
        """Fraction of observations <= value."""
        if self.total == 0:
            return 0.0
        limit = int(value) // self.bin_width
        hits = sum(n for b, n in self._counts.items() if b <= limit)
        return hits / self.total


class Sampler:
    """Calls ``probe()`` every ``interval_ns`` and keeps (time, value) pairs."""

    def __init__(
        self,
        engine: Engine,
        probe: Callable[[], float],
        interval_ns: int,
        *,
        stop_at_ns: Optional[int] = None,
    ):
        if interval_ns < 1:
            raise ValueError(f"interval must be >= 1 ns, got {interval_ns}")
        self._engine = engine
        self._probe = probe
        self.interval_ns = interval_ns
        self.stop_at_ns = stop_at_ns
        self.samples: List[Tuple[int, float]] = []

    def start(self) -> None:
        """Begin sampling."""
        self._engine.schedule(self.interval_ns, self._tick)

    def _tick(self) -> None:
        now = self._engine.now
        if self.stop_at_ns is not None and now > self.stop_at_ns:
            return
        value = self._probe()
        self.samples.append((now, value))
        self._engine.schedule(self.interval_ns, self._tick)

    def values(self) -> List[float]:
        """Just the sampled values."""
        return [v for _, v in self.samples]


class ThroughputProbe:
    """Converts a monotone byte counter into Gb/s over sample intervals."""

    def __init__(self, counter: Callable[[], int], interval_ns: int):
        self._counter = counter
        self._interval_ns = interval_ns
        self._last = counter()

    def __call__(self) -> float:
        current = self._counter()
        gbps = (current - self._last) * 8 / self._interval_ns
        self._last = current
        return gbps
