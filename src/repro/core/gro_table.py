"""The bounded flow table and its three lists (Figure 4).

Each flow entry "is part of exactly one of three doubly linked lists" —
active, inactive, loss recovery.  The table has a strict capacity; when a
new flow arrives at a full table, a victim is chosen in the paper's order
(§4.3): inactive flows first (their OOO queues are empty and their history
has no holes), then FIFO from the active list, and only as a last resort
from the loss-recovery list.

Python dicts preserve insertion order, so each "list" is a dict used as an
ordered set — O(1) membership, append and (amortised) pop-front, the same
complexity profile as the kernel's doubly linked lists.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.core.flow_entry import FlowEntry
from repro.core.phases import Phase
from repro.net.addr import FiveTuple


class GroTable:
    """Capacity-bounded collection of :class:`FlowEntry` in three lists."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: Optional :class:`~repro.trace.tracer.Tracer` for phase events;
        #: set by the owning engine, None when tracing is disabled.
        self.tracer = None
        self._flows: Dict[FiveTuple, FlowEntry] = {}
        self._lists: Dict[str, Dict[FiveTuple, FlowEntry]] = {
            "active": {},
            "inactive": {},
            "loss_recovery": {},
        }

    def __len__(self) -> int:
        return len(self._flows)

    def __contains__(self, key: FiveTuple) -> bool:
        return key in self._flows

    def __iter__(self) -> Iterator[FlowEntry]:
        return iter(self._flows.values())

    @property
    def full(self) -> bool:
        """True when no entry can be added without evicting."""
        return len(self._flows) >= self.capacity

    @property
    def active_len(self) -> int:
        """Flows in the build-up or active-merging phase (Figs. 15, 16)."""
        return len(self._lists["active"])

    @property
    def inactive_len(self) -> int:
        """Flows parked in the post-merge phase."""
        return len(self._lists["inactive"])

    @property
    def loss_recovery_len(self) -> int:
        """Flows waiting for a presumed-lost packet."""
        return len(self._lists["loss_recovery"])

    def lookup(self, key: FiveTuple) -> Optional[FlowEntry]:
        """Fetch the entry for ``key`` if tracked."""
        return self._flows.get(key)

    def add(self, entry: FlowEntry) -> None:
        """Insert a new entry (caller must have made room; see :meth:`full`)."""
        if entry.key in self._flows:
            raise ValueError(f"flow {entry.key} already tracked")
        if self.full:
            raise ValueError("gro_table is full; evict first")
        self._flows[entry.key] = entry
        self._lists[entry.phase.list_name][entry.key] = entry

    def move(self, entry: FlowEntry, phase: Phase, now: int = 0) -> None:
        """Transition ``entry`` to ``phase``, re-homing it on the right list.

        Moving to the same list re-enqueues at the tail, which implements the
        FIFO ordering eviction relies on.  ``now`` timestamps the phase
        trace event when tracing is enabled.
        """
        old_phase = entry.phase
        old_list = self._lists[old_phase.list_name]
        old_list.pop(entry.key, None)
        entry.phase = phase
        self._lists[phase.list_name][entry.key] = entry
        if self.tracer is not None and old_phase is not phase:
            self.tracer.phase(now, entry.key, old_phase, phase)

    def remove(self, entry: FlowEntry) -> None:
        """Drop ``entry`` from the table entirely (eviction / teardown)."""
        del self._flows[entry.key]
        self._lists[entry.phase.list_name].pop(entry.key, None)

    def pick_victim(self, policy: str = "inactive_first") -> FlowEntry:
        """Choose the flow to evict.

        ``"inactive_first"`` is the paper's order (§4.3): post-merge flows
        first (empty queues, no holes), then FIFO from the active list, and
        only if unavoidable from the loss-recovery list.  ``"fifo"`` ignores
        phases and evicts the oldest entry; ``"active_first"`` inverts the
        preference (ablation baselines).
        """
        if not self._flows:
            raise LookupError("gro_table is empty; nothing to evict")
        if policy == "fifo":
            return next(iter(self._flows.values()))
        if policy == "active_first":
            order = ("active", "loss_recovery", "inactive")
        elif policy == "inactive_first":
            order = ("inactive", "active", "loss_recovery")
        else:
            raise ValueError(f"unknown eviction policy: {policy!r}")
        for list_name in order:
            bucket = self._lists[list_name]
            if bucket:
                return next(iter(bucket.values()))
        raise LookupError("gro_table lists are inconsistent")

    def deadline_lists(self) -> tuple:
        """Flows that may have pending timeout work (non-empty OOO queues
        or unflushed in-sequence data): the active and loss-recovery lists,
        as two dict views, in that order."""
        lists = self._lists
        return lists["active"].values(), lists["loss_recovery"].values()
