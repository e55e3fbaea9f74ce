"""Per-flow state — the paper's ``struct flow_entry`` (§4.1).

::

    struct flow_entry {
        struct five_tuple key;
        struct sk_buff_head *ofo_queue;
        u64 flush_timestamp;
        u32 seq_next;
        u32 lost_seq;
    }

plus the lifecycle phase (which of the three lists the entry lives on) and
``hole_since`` — when the head of the OOO queue first detached from
``seq_next``, which is what arms the ``ofo_timeout``.
"""

from __future__ import annotations

from typing import Optional

from repro.core.ofo_queue import OfoQueue
from repro.core.phases import Phase
from repro.net.addr import FiveTuple


class FlowEntry:
    """State Juggler tracks for one five-tuple flow."""

    __slots__ = (
        "key",
        "ofo",
        "flush_timestamp",
        "seq_next",
        "lost_seq",
        "phase",
        "hole_since",
    )

    def __init__(self, key: FiveTuple, now: int, max_payload: Optional[int] = None):
        self.key = key
        self.ofo = OfoQueue(max_payload)
        #: Last time packets of this flow were flushed (ns since epoch).
        self.flush_timestamp = now
        #: Best guess of the largest sequence number already flushed up.
        #: None until the first packet is seen (INITIAL phase).
        self.seq_next: Optional[int] = None
        #: First missing packet's sequence number, set on entering loss
        #: recovery; None otherwise.
        self.lost_seq: Optional[int] = None
        self.phase = Phase.INITIAL
        #: When the head of the OOO queue first stopped being in-sequence
        #: (a "hole" appeared); arms the ofo_timeout.  None = no hole.
        self.hole_since: Optional[int] = None

    @property
    def has_hole(self) -> bool:
        """True when buffered data exists but does not start at seq_next."""
        head = self.ofo.head
        return (
            head is not None
            and self.seq_next is not None
            and head.seq > self.seq_next
        )

    def refresh_hole_state(self, now: int) -> None:
        """Recompute ``hole_since`` after any queue or seq_next change.

        A pre-existing hole keeps its original timestamp (the timeout clock
        keeps running); a new hole starts the clock now; no hole clears it.
        """
        if self.has_hole:
            if self.hole_since is None:
                self.hole_since = now
        else:
            self.hole_since = None

    def learn_seq_next(self, seq: int) -> None:
        """Build-up phase learning: seq_next may move *backwards* (§4.2.2)."""
        if self.seq_next is None or seq < self.seq_next:
            self.seq_next = seq

    def advance_seq_next(self, end_seq: int) -> None:
        """Active-merge semantics: seq_next only moves forward (§4.2.3)."""
        assert self.seq_next is not None
        if end_seq > self.seq_next:
            self.seq_next = end_seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FlowEntry {self.key} phase={self.phase.value} "
            f"seq_next={self.seq_next} lost_seq={self.lost_seq} "
            f"ofo_nodes={len(self.ofo)}>"
        )
