"""Counters every GRO engine maintains.

These are the raw quantities the paper's evaluation reports: segments per
packet (batching extent, Fig. 12), flush-reason mix, OOO segments delivered
to TCP (§5.1.1's "40% are out of order"), flows created/evicted, and list
length samples (Figs. 15, 16).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.flush import FlushReason
from repro.core.phases import Phase


@dataclass
class GroStats:
    """Aggregate counters for one GRO engine instance."""

    #: Data packets processed (pure ACK passthroughs excluded).
    packets: int = 0
    #: Pure-ACK / unbatchable packets passed straight up.
    passthrough_packets: int = 0
    #: Segments delivered up the stack (passthroughs excluded).
    segments: int = 0
    #: MTU packets contained in those segments.
    batched_mtus: int = 0
    #: Segments whose first byte was not the next expected byte of the flow
    #: at delivery time (i.e. visible reordering for the TCP layer).
    ooo_segments: int = 0
    #: Flush counts by reason.
    flush_reasons: Counter = field(default_factory=Counter)
    #: New flow entries created.
    flows_created: int = 0
    #: Evictions by the phase the victim was in.
    evictions: Counter = field(default_factory=Counter)
    #: OOO-queue nodes scanned during inserts (CPU-relevant work measure).
    nodes_scanned: int = 0
    #: Packets merged into an existing segment (append/prepend/extend).
    merges: int = 0
    #: Duplicate-payload packets seen.
    duplicates: int = 0
    #: NAPI poll completions (``poll_complete`` calls).
    polls: int = 0

    # Next-expected byte per flow, for ooo_segments accounting.  Keyed by
    # five-tuple; bounded by the number of distinct flows in an experiment.
    _expected: dict = field(default_factory=dict)

    @property
    def batching_extent(self) -> float:
        """Average MTUs per delivered segment — Figure 12's y-axis."""
        if self.segments == 0:
            return 0.0
        return self.batched_mtus / self.segments

    @property
    def ooo_fraction(self) -> float:
        """Fraction of delivered segments that were out of order."""
        if self.segments == 0:
            return 0.0
        return self.ooo_segments / self.segments

    def record_delivery(self, flow_key, seq: int, end_seq: int, mtus: int,
                        reason: FlushReason) -> None:
        """Account one segment delivered up the stack."""
        self.segments += 1
        self.batched_mtus += mtus
        self.flush_reasons[reason] += 1
        expected = self._expected.get(flow_key)
        if expected is not None and seq != expected:
            self.ooo_segments += 1
        if expected is None or end_seq > expected:
            self._expected[flow_key] = end_seq

    def record_eviction(self, phase: Phase) -> None:
        """Account one flow eviction."""
        self.evictions[phase] += 1

    def bind(self, registry, prefix: str = "gro") -> None:
        """Register these counters as live gauges in a
        :class:`~repro.trace.metrics.MetricsRegistry` under ``prefix``."""
        for attr in ("packets", "passthrough_packets", "segments",
                     "batched_mtus", "ooo_segments", "flows_created",
                     "nodes_scanned", "merges", "duplicates"):
            registry.gauge(f"{prefix}.{attr}",
                           lambda a=attr: getattr(self, a))
        registry.gauge(f"{prefix}.evictions", lambda: self.total_evictions)
        registry.gauge(f"{prefix}.batching_extent",
                       lambda: self.batching_extent)
        registry.gauge(f"{prefix}.ooo_fraction", lambda: self.ooo_fraction)

    @property
    def total_evictions(self) -> int:
        """Evictions across all phases."""
        return sum(self.evictions.values())
