"""Sorted, disjoint byte-range lists: the TCP/SCTP out-of-order queue and the
sender's SACK scoreboard."""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Tuple


def merge_range(ranges: List[Tuple[int, int]], start: int, end: int) -> int:
    """Fold ``[start, end)`` into ``ranges`` in place; returns how many bytes
    that newly covered (0: already held).

    ``ranges`` is sorted, and its members neither overlap nor touch; a new
    range that overlaps or touches members (``e == start`` / ``s == end``)
    replaces them by their union.  O(log n) to find the splice, against one
    list rebuild per out-of-order segment and per SACK block before.
    """
    lo = bisect_left(ranges, (start,))  # first member with s >= start
    if lo and ranges[lo - 1][1] >= start:
        lo -= 1
    # ranges[lo], if any, is the first member that reaches ``start``.
    if lo < len(ranges):
        first_start, first_end = ranges[lo]
        if first_start <= start and first_end >= end:
            return 0
    hi = bisect_left(ranges, (end + 1,), lo)  # first member with s > end
    held = 0
    if hi > lo:
        if first_start < start:
            start = first_start
        last_end = ranges[hi - 1][1]
        if last_end > end:
            end = last_end
        for s, e in ranges[lo:hi]:
            held += e - s
    ranges[lo:hi] = [(start, end)]
    return end - start - held
