"""Reordering metrics over observed packet arrival sequences.

Quantifies *how much* reordering a path introduced — the quantity the
paper's experiments dial in with the NetFPGA switch and that Juggler's
``ofo_timeout`` must cover.  Metrics follow RFC 4737's spirit:

* **reordered fraction** — packets that arrive after a later-sequenced
  packet already arrived (Type-P-Reordered).
* **displacement** — how many positions early/late a packet arrived versus
  the in-order sequence (reordering extent); its maximum bounds the buffer
  Juggler needs in packets.
* **reorder delay** — how long a late packet's data was blocked: the time
  between its arrival and the arrival of the earliest later-sequenced
  packet that preceded it; its maximum is the paper's τ, the knob
  ``ofo_timeout`` must match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.harness.metrics import mean, percentile


@dataclass
class ReorderStats:
    """Aggregate view of one observation run."""

    packets: int
    reordered: int
    max_displacement: int
    mean_displacement: float
    max_delay_ns: int
    p99_delay_ns: float

    @property
    def reordered_fraction(self) -> float:
        """Fraction of packets that arrived late (RFC 4737 Type-P)."""
        if self.packets == 0:
            return 0.0
        return self.reordered / self.packets


class ReorderObserver:
    """Feed it (sequence, arrival_time) pairs; read the metrics out.

    Sequences may be byte offsets or packet indices — any strictly
    increasing per-flow numbering.  Duplicates (same sequence again) are
    ignored for the reordering metrics, matching RFC 4737.
    """

    def __init__(self) -> None:
        self._arrivals: List[Tuple[int, int]] = []
        self._seen: set = set()
        self.duplicates = 0

    def observe(self, seq: int, now: int) -> None:
        """Record one packet arrival."""
        if seq in self._seen:
            self.duplicates += 1
            return
        self._seen.add(seq)
        self._arrivals.append((seq, now))

    def stats(self) -> ReorderStats:
        """Compute the aggregate metrics for everything observed so far."""
        n = len(self._arrivals)
        if n == 0:
            return ReorderStats(0, 0, 0, 0.0, 0, 0.0)

        # Rank of each packet in sequence order vs its arrival position.
        order = sorted(range(n), key=lambda i: self._arrivals[i][0])
        rank_of_arrival = [0] * n
        for rank, arrival_index in enumerate(order):
            rank_of_arrival[arrival_index] = rank

        displacements = [abs(pos - rank_of_arrival[pos]) for pos in range(n)]

        reordered = 0
        delays: List[int] = []
        # Ascending record of (sequence, arrival time) each time the running
        # maximum advanced — the candidates for "earliest overtaker".
        frontier: List[Tuple[int, int]] = []
        for pos in range(n):
            seq, now = self._arrivals[pos]
            if frontier and seq < frontier[-1][0]:
                reordered += 1
                # Blocked since the EARLIEST later-sequenced arrival:
                # binary search the frontier for the first seq > ours.
                lo, hi = 0, len(frontier)
                while lo < hi:
                    mid = (lo + hi) // 2
                    if frontier[mid][0] > seq:
                        hi = mid
                    else:
                        lo = mid + 1
                delays.append(now - frontier[lo][1])
            else:
                frontier.append((seq, now))

        return ReorderStats(
            packets=n,
            reordered=reordered,
            max_displacement=max(displacements),
            mean_displacement=mean(displacements),
            max_delay_ns=max(delays) if delays else 0,
            p99_delay_ns=percentile(delays, 99) if delays else 0.0,
        )


def recommend_ofo_timeout(stats: ReorderStats, coalesce_ns: int = 0,
                          headroom: float = 1.2) -> int:
    """The §5.2.1 tuning rule as code: ofo_timeout ≈ τ − τ₀, with headroom.

    τ is the worst observed reorder delay; τ₀ the interrupt-coalescing
    period that re-orders for free inside the ring buffer.  The paper
    advises it is "better to slightly over-estimate" — ``headroom`` supplies
    that margin.
    """
    tau = stats.max_delay_ns
    return max(0, round((tau - coalesce_ns) * headroom))
