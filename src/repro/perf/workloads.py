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


def steering_lookup_churn(policy, flows: List[FiveTuple], lookups: int,
                          *, rebalance_every: int = 0) -> int:
    """The NIC demux inner loop: one ``queue_index`` call per packet.

    Cycles the flow set round-robin for ``lookups`` packets; when
    ``rebalance_every`` is non-zero the policy is rebalanced on that cadence
    (half the groups each time), which keeps Flow Director's
    install/migrate/evict machinery hot instead of settling into pure
    table hits.  Returns a checksum of the chosen queues so the loop
    cannot be optimised away.
    """
    n_flows = len(flows)
    queue_index = policy.queue_index
    acc = 0
    for i in range(lookups):
        acc += queue_index(flows[i % n_flows])
        if rebalance_every and (i + 1) % rebalance_every == 0:
            policy.rebalance(0.5)
    return acc


def cc_ack_clock(cc, n_acks: int, *, rtt_ns: int = 100_000) -> int:
    """The congestion-control ACK clock: one ``on_ack`` per cumulative ACK.

    A steady two-MSS-per-ACK clock with a fast-retransmit episode every
    8192 ACKs, so the policy keeps exercising its recovery entry/exit
    arithmetic instead of growing its window without bound.  Returns a
    cwnd checksum so the loop cannot be optimised away.
    """
    cc.rtt.sample(rtt_ns, 0)
    now = 0
    ack = 0
    acc = 0
    step = rtt_ns // 32
    flight = 64 * MSS
    on_ack = cc.on_ack
    for i in range(n_acks):
        now += step
        ack += 2 * MSS
        on_ack(2 * MSS, now, ack=ack, snd_nxt=ack + flight, flight=flight,
               in_recovery=False, recovery_exit=False)
        if (i + 1) % 8192 == 0:
            cc.on_recovery_start(flight, now)
            ack += MSS
            on_ack(MSS, now, ack=ack, snd_nxt=ack + flight, flight=flight,
                   in_recovery=False, recovery_exit=True)
            acc += cc.cwnd
    return acc + cc.cwnd


def bbr_steady_clock(cc, n_rounds: int, *, rtt_ns: int = 100_000,
                     bw_gbps: float = 10.0) -> int:
    """BBR's steady-state pipe: send one flight, ACK it one RTT later.

    Every round runs the full model update — delivery-rate sample, bw
    filter, RTprop tracking, the state machine and the cwnd/pacing
    computation — at a constant bottleneck rate, which is the per-ACK
    cost a BBR flow pays forever once out of startup.
    """
    flight = int(bw_gbps * rtt_ns / 8)
    now = 0
    seq = 0
    sample = cc.rtt.sample
    on_send = cc.on_send
    on_ack = cc.on_ack
    for _ in range(n_rounds):
        seq += flight
        on_send(seq, flight, now)
        now += rtt_ns
        sample(rtt_ns, now)
        on_ack(flight, now, ack=seq, snd_nxt=seq, flight=flight,
               in_recovery=False, recovery_exit=False)
    return cc.cwnd


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


def timer_rearm_churn(engine_cls, timer_cls, n_timers: int,
                      polls: int) -> int:
    """The RxQueue hrtimer pattern: every "poll", every timer is re-armed.

    Each re-arm cancels the pending event and schedules a new one — the
    tombstone-churn case lazy cancellation and compaction exist for.
    Returns the number of timer fires.
    """
    engine = engine_cls()
    fires = [0]

    def on_fire() -> None:
        fires[0] += 1

    timers = [timer_cls(engine, on_fire) for _ in range(n_timers)]

    def poll(round_no: int) -> None:
        # Deadlines sit far out (ofo_timeout-scale, ~1ms) while polls
        # re-arm every microsecond, so each cancelled event outlives
        # ~1000 re-arms — the worst case for lazy cancellation.
        base = engine.now + 1_000_000
        for k, timer in enumerate(timers):
            timer.arm_at(base + ((round_no * 37 + k * 13) % 64) * 100)
        if round_no < polls:
            engine.schedule(1_000, poll, round_no + 1)

    engine.schedule(0, poll, 0)
    engine.run()
    return fires[0]


class _RouteProbe:
    """The minimal packet shape a routing policy inspects (a flow key)."""

    __slots__ = ("flow",)

    def __init__(self, flow: FiveTuple):
        self.flow = flow


def flowcut_route_churn(policy, flows: List[FiveTuple], lookups: int,
                        *, nports: int = 4, burst: int = 16,
                        gap_ns: int = 2_000) -> int:
    """The flowcut fast path under pin/drain/move churn.

    Exact-drain mode, no exit taps needed: each flow sends a ``burst`` of
    back-to-back packets, then every packet of the burst exits — so the
    next burst of that flow finds its flowcut drained and eligible to
    move.  One iteration exercises the full entry lifecycle (table hit,
    in-flight accounting, drain check, re-pin) rather than settling into
    pure dictionary hits.  Returns a checksum of the chosen ports so the
    loop cannot be optimised away.
    """
    policy.track_inflight()
    probes = [_RouteProbe(f) for f in flows]
    n_flows = len(probes)
    choose = policy.choose
    exited = policy.packet_exited
    observe = policy.observe
    now = 0
    acc = 0
    done = 0
    i = 0
    while done < lookups:
        probe = probes[i % n_flows]
        i += 1
        observe(now)
        for _ in range(burst):
            acc += choose(probe, nports)
        flow = probe.flow
        for _ in range(burst):
            exited(flow)
        now += gap_ns
        done += burst
    return acc


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
