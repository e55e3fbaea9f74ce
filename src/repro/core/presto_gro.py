"""A Presto-style receive-side OOO buffer, for the related-work comparison.

Presto [24] "also adds an out of order buffer to GRO" but "maintains state
for all established connections, which may suffer from performance issues
and is vulnerable to memory resource exhaustion attacks" (§6).  We model
that design point as Juggler's buffering logic with an *unbounded* flow
table and no eviction: functionally resilient to (TSO-granular) reordering,
but its memory footprint grows with every flow ever seen — the property the
ablation benches contrast with Juggler's bounded table.
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import DeliverFn
from repro.core.config import JugglerConfig
from repro.core.juggler import JugglerGRO

#: Effectively-unbounded table capacity standing in for "track everything".
_UNBOUNDED = 2**31


class PrestoGRO(JugglerGRO):
    """Juggler's buffering with per-connection state that never goes away."""

    def __init__(
        self,
        deliver: DeliverFn,
        config: Optional[JugglerConfig] = None,
    ):
        base = config if config is not None else JugglerConfig()
        unbounded = JugglerConfig(
            inseq_timeout=base.inseq_timeout,
            ofo_timeout=base.ofo_timeout,
            table_capacity=_UNBOUNDED,
            max_segment_bytes=base.max_segment_bytes,
        )
        super().__init__(deliver, unbounded)

    @property
    def tracked_flows(self) -> int:
        """Flow entries resident in memory — grows without bound (§6)."""
        return len(self.table)

    @property
    def resident_state_bytes(self) -> int:
        """Rough kernel-memory footprint: ~96 bytes of flow_entry + list
        linkage per connection ever seen (the O(connections) growth
        Juggler's bounded table avoids), plus buffered payload."""
        return 96 * len(self.table) + self.buffered_bytes
