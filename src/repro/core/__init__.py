"""The paper's contribution: the Juggler GRO engine and its baselines.

Everything in this package is a pure algorithm over ``(packet, timestamp)``
inputs — no dependence on the simulator — so the reordering logic can be
unit-tested, property-tested and reused standalone, exactly as the kernel
patch sits behind the GRO API.

Engines share one interface (:class:`~repro.core.base.GroEngine`):

* :class:`JugglerGRO` — the paper's design: per-flow OOO queues, five-phase
  lifecycle, bounded ``gro_table`` with aggressive eviction (§4).
* :class:`StandardGRO` — the vanilla kernel baseline: in-sequence merging
  only, everything flushed at every polling completion (§3.1).
* :class:`ChainedGRO` — the rejected alternative from §3.1 that batches
  regardless of order into linked-list chains (50% extra CPU).
* :class:`PrestoGRO` — a Presto-style OOO buffer that keeps state for every
  connection with no eviction (§6, related work).
"""
