"""A deterministic, lightly reordered multi-flow packet stream for the
receive-path tests."""

from __future__ import annotations

from typing import List

from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet
from repro.sim.rng import RngRegistry


def reordered_stream(
    n_flows: int,
    pkts_per_flow: int,
    *,
    window: int = 8,
    burst: int = 16,
    concurrency: int = 8,
    seed: int = 9,
) -> List[Packet]:
    """A lightly reordered multi-flow packet stream.

    Per flow, packets are in sequence but shuffled within a sliding
    ``window`` (the per-packet-spraying displacement the paper measures).
    Flows land on the queue the way TSO senders share one: ``burst``-packet
    runs back-to-back, with ``concurrency`` flows interleaving their bursts
    at any moment and fresh flows rotating in as earlier ones finish —
    which keeps the stream exercising the merge path rather than pure
    table-eviction churn.
    """
    rng = RngRegistry(seed).stream("perf-reorder")
    flows = [FiveTuple(1 + (i % 16), 99, 10_000 + i, 80)
             for i in range(n_flows)]
    per_flow: List[List[Packet]] = []
    for flow in flows:
        order = list(range(pkts_per_flow))
        for i in range(0, pkts_per_flow - window, window):
            chunk = order[i:i + window]
            rng.shuffle(chunk)
            order[i:i + window] = chunk
        per_flow.append([Packet(flow, k * MSS, MSS) for k in order])
    stream: List[Packet] = []
    for g in range(0, n_flows, concurrency):
        group = per_flow[g:g + concurrency]
        for start in range(0, pkts_per_flow, burst):
            for packets in group:
                stream.extend(packets[start:start + burst])
    return stream
