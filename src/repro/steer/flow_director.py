"""ATR-style Flow Director steering — the self-inflicted reordering source.

Intel's Application Targeted Routing keeps a bounded hash table of
flow → queue rules, installed from *sampled* transmit-side traffic so a
flow's RX packets follow the core its application runs on.  "Why Does Flow
Director Cause Packet Reordering?" (PAPERS.md) documents the pathology this
module reproduces: when the affinity assignment changes (the scheduler
moves the application, or the table is flushed), the rule is rewritten only
at the *next sampled packet* — so in-flight packets of the moved flow land
on two queues, and the flow's byte stream reaches TCP out of order even
though the fabric delivered every packet in order.

The model, end to end:

* **Rules** live in a bounded signature table, as in the hardware: one
  slot per hash bucket, a colliding new flow *overwrites* the incumbent
  (that overwrite is the eviction-pressure metric).
* **Affinity** (which core a flow's application "runs on") is a
  deterministic mix of the flow hash with one of ``groups`` salts;
  :meth:`rebalance` re-salts ``migrate_fraction`` of the groups from the
  policy's seeded stream — the scheduler shuffling applications across
  cores.
* **Sampling**: every ``sample_rate``-th steered packet stands in for the
  echoed TX traffic and (re)installs its flow's rule toward the flow's
  current affinity.  Between a rebalance and the next sample, packets keep
  following the stale rule — exactly the window that manufactures the
  two-queue straddle.

Unmatched flows fall back to RSS, so a freshly flushed table degrades to
:class:`~repro.steer.policy.RssSteering` (a mass migration) rather than
dropping anything.  Every counter is deterministic given the seed stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from repro.net.addr import FiveTuple
from repro.steer.policy import SteeringPolicy

#: 64-bit golden-ratio multiplier for the affinity mix.
_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix(h: int, salt: int) -> int:
    """A well-mixed 64-bit hash of (flow hash, salt)."""
    x = ((h ^ salt) * _GOLDEN) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class FlowDirectorConfig:
    """Knobs of the ATR model."""

    #: Rule-table capacity, in hash-indexed slots.
    table_size: int = 8192
    #: Install/update a rule every Nth steered packet (ATR samples TX
    #: traffic at a configurable rate; ixgbe's default is 20).
    sample_rate: int = 20
    #: Affinity groups; ``rebalance(fraction)`` re-salts ``fraction`` of
    #: them, so a fraction-f rebalance migrates ~f of the flows.
    groups: int = 64

    def __post_init__(self) -> None:
        if self.table_size < 1:
            raise ValueError(f"table_size must be >= 1, got {self.table_size}")
        if self.sample_rate < 1:
            raise ValueError(
                f"sample_rate must be >= 1, got {self.sample_rate}")
        if self.groups < 1:
            raise ValueError(f"groups must be >= 1, got {self.groups}")


class _Rule:
    """One installed flow → queue rule."""

    __slots__ = ("flow", "queue", "last_queue")

    def __init__(self, flow: FiveTuple, queue: int, last_queue: int):
        self.flow = flow
        self.queue = queue
        #: The queue this flow's previous packet actually landed on — the
        #: probe that detects cross-queue (reordering-capable) handoffs.
        self.last_queue = last_queue


class FlowDirectorSteering(SteeringPolicy):
    """Bounded flow-affinity steering with migration on rebalance."""

    name = "flow_director"

    def __init__(self, config: Optional[FlowDirectorConfig] = None,
                 rng: Optional[random.Random] = None):
        super().__init__()
        self.config = config if config is not None else FlowDirectorConfig()
        #: Seeded stream for rebalance salts (experiments pass a named
        #: ``sim.rng`` stream so churn replays byte-identically).
        self._rng = (rng if rng is not None
                     else random.Random(0x51EE12))  # det: allow(raw-rng) -- constant-seeded fallback for standalone use; experiments inject a named RngRegistry stream
        self._salts = [self._rng.getrandbits(32)
                       for _ in range(self.config.groups)]
        self._cursor = 0
        self._tick = 0
        #: bucket -> rule, bounded by ``table_size``.
        self._rules: Dict[int, _Rule] = {}
        # Counters (see docs/steering.md for the vocabulary).
        self.hits = 0
        self.misses = 0
        self.installs = 0
        self.rule_updates = 0
        self.migrations = 0
        self.rule_evictions = 0
        self.cross_queue_events = 0
        self.rebalances = 0
        self.groups_moved = 0
        self.table_flushes = 0
        self.rules_flushed = 0

    # -- wiring ---------------------------------------------------------------

    def _bind_metrics(self, tracer, prefix: str) -> None:
        metrics = tracer.metrics
        metrics.gauge(f"{prefix}.rules", lambda: len(self._rules))
        metrics.gauge(f"{prefix}.hits", lambda: self.hits)
        metrics.gauge(f"{prefix}.misses", lambda: self.misses)
        metrics.gauge(f"{prefix}.migrations", lambda: self.migrations)
        metrics.gauge(f"{prefix}.rule_evictions",
                      lambda: self.rule_evictions)
        metrics.gauge(f"{prefix}.cross_queue_events",
                      lambda: self.cross_queue_events)
        metrics.gauge(f"{prefix}.rebalances", lambda: self.rebalances)
        metrics.gauge(f"{prefix}.table_flushes", lambda: self.table_flushes)

    # -- affinity -------------------------------------------------------------

    def _home(self, h: int) -> int:
        """The queue the flow's application currently runs on."""
        return _mix(h, self._salts[h % self.config.groups]) % self._n

    def _lookup(self, flow: FiveTuple, h: int) -> Optional[_Rule]:
        rule = self._rules.get(h % self.config.table_size)
        if rule is not None and rule.flow == flow:
            return rule
        return None

    # -- data path ------------------------------------------------------------

    def queue_index(self, flow: FiveTuple) -> int:
        h = flow.rss_hash()
        rule = self._lookup(flow, h)
        if rule is not None:
            self.hits += 1
            queue = rule.queue
            if queue != rule.last_queue:
                # The rule moved since this flow's previous packet: the
                # stream now straddles two queues' private GRO state.
                self.cross_queue_events += 1
                rule.last_queue = queue
        else:
            self.misses += 1
            queue = h % self._n
        self._tick += 1
        if self._tick >= self.config.sample_rate:
            self._tick = 0
            self._install(flow, h)
        return queue

    def current_queue(self, flow: FiveTuple) -> int:
        """Pure probe: no sampling tick, no counters."""
        h = flow.rss_hash()
        rule = self._lookup(flow, h)
        if rule is not None:
            return rule.queue
        return h % self._n

    def _install(self, flow: FiveTuple, h: int) -> None:
        """A sampled packet (the TX-echo stand-in) refreshes its rule."""
        target = self._home(h)
        rule = self._lookup(flow, h)
        if rule is not None:
            if rule.queue != target:
                self.migrations += 1
                if self.tracer is not None and self._engine is not None:
                    self.tracer.steer_migration(self._engine.now, flow,
                                                rule.queue, target)
                rule.queue = target
            else:
                self.rule_updates += 1
            return
        # New rule: the flow's packets were landing on the RSS fallback
        # queue until now, so that is the rule's last-seen queue.
        slot = h % self.config.table_size
        if slot in self._rules:
            self.rule_evictions += 1
        self._rules[slot] = _Rule(flow, target, last_queue=h % self._n)
        self.installs += 1

    # -- control plane --------------------------------------------------------

    def rebalance(self, migrate_fraction: float = 1.0, *,
                  flush_table: bool = False) -> int:
        """Re-salt ``migrate_fraction`` of the affinity groups.

        Installed rules keep steering to their old queues until the next
        sampled packet of each flow rewrites them — that lag is the
        reordering window.  ``flush_table`` additionally clears every rule
        (the driver-reset case): all flows revert to RSS at once and
        re-install from scratch.
        """
        if not 0.0 <= migrate_fraction <= 1.0:
            raise ValueError(
                f"migrate_fraction must be in [0, 1], got {migrate_fraction}")
        self.rebalances += 1
        moved = 0
        if migrate_fraction > 0.0:
            moved = max(1, round(migrate_fraction * self.config.groups))
            for _ in range(moved):
                group = self._cursor % self.config.groups
                self._cursor += 1
                self._salts[group] = self._rng.getrandbits(32)
        self.groups_moved += moved
        if flush_table:
            self.table_flushes += 1
            self.rules_flushed += len(self._rules)
            self._rules.clear()
        if self.tracer is not None and self._engine is not None:
            self.tracer.steer_rebalance(self._engine.now, moved, flush_table)
        return moved

    # -- reporting ------------------------------------------------------------

    @property
    def rule_count(self) -> int:
        """Rules currently installed (bounded by ``table_size``)."""
        return len(self._rules)

    def counters(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "installs": self.installs,
            "rule_updates": self.rule_updates,
            "migrations": self.migrations,
            "rule_evictions": self.rule_evictions,
            "cross_queue_events": self.cross_queue_events,
            "rebalances": self.rebalances,
            "groups_moved": self.groups_moved,
            "table_flushes": self.table_flushes,
            "rules_flushed": self.rules_flushed,
            "rules": len(self._rules),
        }
