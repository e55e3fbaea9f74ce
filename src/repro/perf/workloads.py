"""Deterministic workloads for the hot-path microbenchmarks.

Everything here is seeded and fixed-size, so two runs of the same bench
process identical packet sequences — the only thing that varies between
runs is how long the hot path takes.
"""

from __future__ import annotations

from typing import List

from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet
from repro.sim.rng import RngRegistry

#: Figure 10 workload shape: many concurrent flows into one RX queue.
MANY_FLOWS = 256


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


def drive_gro(gro, packets: List[Packet], *, batch: int = 32,
              ns_per_packet: int = 100) -> None:
    """Drive a GRO engine the way the NAPI layer does: each poll handed
    down as a plain list (what ``RxQueue._interrupt`` does), one
    ``poll_complete`` per poll."""
    now = 0
    for start in range(0, len(packets), batch):
        chunk = packets[start:start + batch]
        now = (start + len(chunk)) * ns_per_packet
        gro.receive_batch(chunk, now)
        gro.poll_complete(now)
    gro.flush_all(now + 1)


def engine_event_churn(engine_cls, n_events: int) -> int:
    """Schedule/fire churn through the event engine.

    A self-rescheduling fan of callbacks with mixed short deadlines —
    the link-transmit/pacing pattern that dominates experiment runtime.
    Uses the fire-and-forget ``post`` entry point when the engine has one
    (pre-optimization engines fall back to ``schedule``).
    Returns the number of callbacks executed.
    """
    engine = engine_cls()
    post = getattr(engine, "post", engine.schedule)
    fired = [0]

    def tick(delay: int) -> None:
        fired[0] += 1
        if fired[0] < n_events:
            post(delay, tick, delay)

    for i, delay in enumerate((700, 1_300, 2_900, 5_100, 12_000, 45_000,
                               130_000, 1_100_000)):
        engine.schedule(i, tick, delay)
    engine.run(max_events=n_events)
    return fired[0]


def detector_update_churn(detector, packets: List[Packet]) -> int:
    """The detector's per-packet path over a reordered stream.

    One ``observe`` per packet of a :func:`reordered_stream` — table hits,
    watermark updates, and (for the reordered fraction) sketch updates.
    Returns the packet count.
    """
    observe = detector.observe
    for p in packets:
        observe(p.flow, p.seq, p.end_seq, p.payload_len)
    return len(packets)
