"""Sketch-based data-plane reordering detection (the Princeton design).

Zheng, Yu & Rexford ("Detecting TCP Packet Reordering in the Data Plane",
arXiv:2301.00058) showed a switch can *measure* TCP reordering with the
few hundred kilobytes of register memory a programmable data plane
actually has, instead of the per-flow gigabytes an end-host sees.  This
module reproduces that design point inside the simulated fabric:

* a **compact flow table** — fixed slots holding only a 32-bit flow
  signature, the highest sequence watermark, and a last-touched tick;
  2-choice hashing, stale-slot reclamation, and oldest-of-two eviction
  under pressure.  No flow keys are stored: collisions and evictions are
  the price of boundedness, and exactly what the precision/recall grading
  measures.
* a **count-min sketch** accumulating *reordered bytes* per flow, whose
  (over-)estimates feed
* a small **heavy-reorderer store** keeping actual flow identities for
  flows whose estimate crossed the report threshold — the switch's answer
  to "which flows is the fabric reordering?".

All three structures are sized from one ``memory_budget_bytes`` knob, so
the memory→accuracy tradeoff is a single axis (docs/fabric.md tabulates
it).  Ground truth for grading comes from
:class:`repro.trace.groundtruth.GroundTruthSink`, which watches the same
packets with unbounded state.

Determinism: everything hashes through :meth:`_mix`-style integer mixing
of the :class:`~repro.net.addr.FiveTuple`'s precomputed deterministic
hash; staleness uses a logical packet tick, not wall or simulation time —
the detector needs no engine and produces identical output for identical
packet sequences.

Cost contract: a switch holds ``detector=None`` by default and the hot
path guards with ``if detector is not None`` — the disabled path makes no
call into this module and allocates nothing (pinned as a count by
``tests/integration/test_layer_budgets.py``).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Optional, Set

#: Modeled register cost of one flow-table slot: 32-bit signature +
#: 32-bit sequence watermark + 32-bit tick, padded to 16 bytes.
_SLOT_BYTES = 16
#: Modeled cost of one count-min counter (32-bit byte count).
_COUNTER_BYTES = 4
#: Modeled cost of one heavy-store entry (flow id + estimate).
_HEAVY_BYTES = 16
#: Count-min rows (independent hash functions).
SKETCH_ROWS = 2

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix(value: int, salt: int) -> int:
    """The fabric's cheap deterministic integer hash (see routing.py)."""
    h = (value ^ salt) * 0x9E3779B97F4A7C15 & _MASK64
    h ^= h >> 31
    return h


@dataclass(frozen=True)
class DetectorConfig:
    """Sizing and reporting knobs, all derived from one memory budget."""

    #: Total register budget across flow table + sketch + heavy store.
    memory_budget_bytes: int = 8192
    #: Reordered-byte estimate at which a flow is reported heavy.
    heavy_threshold_bytes: int = 10_000
    #: Flow slots idle this many observed packets are reclaimable.
    stale_after: int = 4096

    def __post_init__(self):
        if self.memory_budget_bytes < 256:
            raise ValueError(
                f"budget too small to size all three structures: "
                f"{self.memory_budget_bytes} < 256 bytes")
        if self.heavy_threshold_bytes < 1:
            raise ValueError("heavy threshold must be positive")

    @property
    def flow_slots(self) -> int:
        """Half the budget buys flow-table slots."""
        return max(2, (self.memory_budget_bytes // 2) // _SLOT_BYTES)

    @property
    def sketch_width(self) -> int:
        """Three eighths of the budget buys count-min counters."""
        budget = self.memory_budget_bytes * 3 // 8
        return max(2, budget // (_COUNTER_BYTES * SKETCH_ROWS))

    @property
    def heavy_capacity(self) -> int:
        """One eighth of the budget buys heavy-store entries."""
        return max(2, (self.memory_budget_bytes // 8) // _HEAVY_BYTES)


@dataclass
class DetectorStats:
    """Operational counters (distinct from the reordering answer)."""

    packets: int = 0
    #: Packets that matched a tracked flow and arrived below its watermark.
    reordered_packets: int = 0
    #: Fresh slot installs (first sight of a signature).
    inserts: int = 0
    #: Installs that displaced a live entry (table pressure).
    evictions: int = 0
    #: Installs into a slot whose entry had gone stale.
    stale_reclaims: int = 0
    #: Heavy-store inserts that displaced the smallest estimate.
    heavy_evictions: int = 0


class ReorderDetector:
    """Per-switch reordering telemetry under a fixed memory budget.

    Attach to an egress ToR (see ``Switch.attach_detector``); call
    :meth:`observe` once per host-bound data packet.  Query
    :meth:`heavy_reorderers` for the reported flow set and
    :meth:`estimate` for a flow's sketched reordered-byte count.
    """

    def __init__(self, config: Optional[DetectorConfig] = None,
                 *, salt: int = 0xD7EC7):
        self.config = config if config is not None else DetectorConfig()
        cfg = self.config
        self.salt = salt
        self._slots = cfg.flow_slots
        self._width = cfg.sketch_width
        # Parallel slot columns: signature 0 marks an empty slot.
        self._sig = array("L", [0]) * self._slots
        self._expected = array("q", [0]) * self._slots
        self._tick_col = array("q", [0]) * self._slots
        self._rows = [array("q", [0]) * self._width
                      for _ in range(SKETCH_ROWS)]
        self._row_salts = [_mix(salt, 0xA11CE + r)
                           for r in range(SKETCH_ROWS)]
        #: flow -> last estimate at crossing time (real keys, bounded).
        self._heavy: Dict[object, int] = {}
        #: flow -> (sig, i1, i2, ((row, column), ...)), mixed on the flow's
        #: first packet: a host-side memo of a pure function of the key, not
        #: modelled register state (never table content, not in memory_bytes).
        self._hashes: Dict[object, tuple] = {}
        self._tick = 0
        self.stats = DetectorStats()

    def _mix_flow(self, flow) -> tuple:
        """The memo entry for ``flow`` (see ``_hashes``)."""
        h, salt = hash(flow), self.salt
        sig = _mix(h, salt ^ 0x516) & 0xFFFFFFFF
        hashes = self._hashes[flow] = (
            sig if sig != 0 else 1,
            _mix(h, salt) % self._slots,
            _mix(h, salt ^ 0xBEEF) % self._slots,
            tuple((row, _mix(h, row_salt) % self._width)
                  for row, row_salt in zip(self._rows, self._row_salts)))
        return hashes

    # -- the per-packet path ---------------------------------------------------

    def observe(self, flow, seq: int, end_seq: int,
                payload_len: int) -> None:
        """One data packet headed for a directly-attached host."""
        self._tick += 1
        tick = self._tick
        stats = self.stats
        stats.packets += 1
        hashes = self._hashes.get(flow)
        if hashes is None:
            hashes = self._mix_flow(flow)
        sig, i1, i2, cells = hashes
        sigs = self._sig
        tick_col = self._tick_col

        idx = -1
        if sigs[i1] == sig:
            idx = i1
        elif sigs[i2] == sig:
            idx = i2

        if idx >= 0:
            expected = self._expected[idx]
            if seq < expected:
                stats.reordered_packets += 1
                # Count-min: add to one counter per row, estimate = least.
                estimate = None
                for row, j in cells:
                    count = row[j] = row[j] + payload_len
                    if estimate is None or count < estimate:
                        estimate = count
                if estimate >= self.config.heavy_threshold_bytes:
                    heavy = self._heavy
                    if flow in heavy:
                        heavy[flow] = estimate
                    else:
                        self._report_heavy(flow, estimate)
            if end_seq > expected:
                self._expected[idx] = end_seq
            tick_col[idx] = tick
            return

        # Miss: install. Prefer an empty slot, then a stale one, then
        # displace whichever candidate was touched longer ago.
        if sigs[i1] == 0:
            idx = i1
        elif sigs[i2] == 0:
            idx = i2
        else:
            stale_before = tick - self.config.stale_after
            if tick_col[i1] < stale_before:
                idx = i1
                stats.stale_reclaims += 1
            elif tick_col[i2] < stale_before:
                idx = i2
                stats.stale_reclaims += 1
            else:
                idx = i1 if tick_col[i1] <= tick_col[i2] else i2
                stats.evictions += 1
        sigs[idx] = sig
        self._expected[idx] = end_seq
        tick_col[idx] = tick
        stats.inserts += 1

    def _report_heavy(self, flow, estimate: int) -> None:
        """A flow not yet in the heavy store crossed the threshold."""
        heavy = self._heavy
        if len(heavy) < self.config.heavy_capacity:
            heavy[flow] = estimate
            return
        # Full: displace the smallest estimate, but only for a larger one.
        victim = min(heavy, key=heavy.__getitem__)
        if heavy[victim] < estimate:
            del heavy[victim]
            heavy[flow] = estimate
            self.stats.heavy_evictions += 1

    # -- the answers -----------------------------------------------------------

    def heavy_reorderers(self) -> Set[object]:
        """Flows reported as heavy reorderers (real flow identities)."""
        return set(self._heavy)

    def estimate(self, flow) -> int:
        """Count-min estimate of the flow's reordered bytes (never under
        the true value for flows the table tracked continuously)."""
        h = hash(flow)
        return min(row[_mix(h, salt) % self._width]
                   for row, salt in zip(self._rows, self._row_salts))

    @property
    def tracked_flows(self) -> int:
        """Occupied flow-table slots."""
        return sum(1 for s in self._sig if s != 0)

    @property
    def memory_bytes(self) -> int:
        """Modeled register usage (≤ the configured budget)."""
        cfg = self.config
        return (self._slots * _SLOT_BYTES
                + SKETCH_ROWS * cfg.sketch_width * _COUNTER_BYTES
                + cfg.heavy_capacity * _HEAVY_BYTES)

    # -- metrics export --------------------------------------------------------

    def bind_metrics(self, registry, prefix: str) -> None:
        """Register gauges on a :class:`~repro.trace.metrics.MetricsRegistry`.

        Uses gauges (sampled at read time) rather than counters so the
        per-packet path stays registry-free.
        """
        registry.gauge(f"{prefix}.packets", lambda: self.stats.packets)
        registry.gauge(f"{prefix}.reordered_packets",
                       lambda: self.stats.reordered_packets)
        registry.gauge(f"{prefix}.tracked_flows",
                       lambda: self.tracked_flows)
        registry.gauge(f"{prefix}.evictions", lambda: self.stats.evictions)
        registry.gauge(f"{prefix}.heavy_flows", lambda: len(self._heavy))
        registry.gauge(f"{prefix}.memory_bytes", lambda: self.memory_bytes)
