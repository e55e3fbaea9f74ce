"""The benchmark's metric tables and the per-layer arithmetic.

Every metric is either **host** (what the simulator cost on this box: raw
wall seconds and memory; noisy, carries a bound) or **simulated** (what the
modelled network did, or how much work the simulator counted doing it —
repeats exactly on the same tree and compares exactly between commits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from cells import Cell, flush_count
from repro.core.flush import FlushReason
from spans import LAYERS, SpanRecorder

HOST = "host"
SIMULATED = "simulated"


@dataclass(frozen=True)
class Metric:
    """One reported number."""

    name: str
    unit: str
    better: str
    kind: str
    what: str
    #: Share of the parent's median by which the metric may worsen
    #: (end-to-end metrics only).
    bound: Optional[float] = None


END_TO_END = (
    Metric("cell_wall_s", "s", "lower", HOST,
           "raw wall time of engine.run_until(0 -> stop), fastest of the "
           "run's n repetitions (median, quartiles and n are printed)", 0.25),
    Metric("sim_pkts_per_s", "1/s", "higher", HOST,
           "packets handed to GRO on every host NIC (data + ACKs) per host "
           "second of cell_wall_s", 0.25),
    Metric("setup_s", "s", "lower", HOST,
           "raw wall time of a fresh interpreter, spawn to cell built "
           "(interpreter + import repro + topology/NIC/GRO/TCP "
           "construction), fastest of the run's n launches", 0.25),
    Metric("peak_rss_mb", "MB", "lower", HOST,
           "peak resident set of the repetition process at exit", 0.10),
    Metric("goodput_gbps", "Gb/s", "higher", SIMULATED,
           "bytes delivered in order to applications x 8 / simulated ns; "
           "exact at a given --seed, moves <1% across port draws", 0.02),
)


def _layer_metrics() -> List[Metric]:
    out = []
    for layer in LAYERS:
        out.append(Metric(f"{layer}.self_s", "s", "lower", HOST,
                          f"self time of {layer} spans in one traced cell"))
        out.append(Metric(f"{layer}.calls", "count", "lower", SIMULATED,
                          f"{layer} spans in one traced cell"))
    return out


PER_LAYER = tuple(_layer_metrics()) + (
    Metric("sim.events", "count", "lower", SIMULATED,
           "Engine.events_processed"),
    Metric("sim.events_per_pkt", "count", "lower", SIMULATED,
           "events processed per packet received on any host NIC"),
    Metric("sim.schedule_calls", "count", "lower", SIMULATED,
           "Engine.schedule/schedule_at/post/post_at calls"),
    Metric("sim.timer_arms", "count", "lower", SIMULATED,
           "Timer.arm_at calls"),
    Metric("sim.tombstones", "count", "lower", SIMULATED,
           "cancelled events still resident when the cell stops"),
    Metric("sim.compactions", "count", "lower", SIMULATED,
           "tombstone compaction passes"),
    Metric("sim.events_allocated", "count", "lower", SIMULATED,
           "fresh Event allocations (free-list misses)"),
    Metric("sim.us_per_event", "us", "lower", HOST,
           "sim.self_s per processed event"),
    Metric("fabric.link_enqueues", "count", "lower", SIMULATED,
           "QueuedLink.enqueue calls (packet-hops)"),
    Metric("fabric.events_per_hop", "count", "lower", SIMULATED,
           "events scheduled from fabric spans per link enqueue"),
    Metric("fabric.us_per_hop", "us", "lower", HOST,
           "fabric.self_s per link enqueue"),
    Metric("fabric.switch_forwards", "count", "lower", SIMULATED,
           "Switch.receive + ReorderingSwitch.receive calls"),
    Metric("fabric.route_choices", "count", "lower", SIMULATED,
           "RoutingPolicy.choose calls"),
    Metric("fabric.detector_updates", "count", "lower", SIMULATED,
           "ReorderDetector.observe calls"),
    Metric("fabric.link_drops", "count", "lower", SIMULATED,
           "tail drops over every link"),
    Metric("fabric.max_queue_kb", "KB", "lower", SIMULATED,
           "deepest link queue seen"),
    Metric("net.packets_built", "count", "lower", SIMULATED,
           "data packets cut by TSO plus ACKs built"),
    Metric("net.pool_hit_ratio", "ratio", "higher", SIMULATED,
           "PacketPool acquisitions served from the free list (0 when the "
           "cell never acquires)"),
    Metric("net.tso_bursts", "count", "lower", SIMULATED,
           "segment_tso_burst calls"),
    Metric("nic.rx_pkts", "count", "lower", SIMULATED,
           "packets handed to GRO over every RX queue"),
    Metric("nic.polls", "count", "lower", SIMULATED, "completed NAPI polls"),
    Metric("nic.pkts_per_poll", "count", "higher", SIMULATED,
           "nic.rx_pkts per poll (the batch core and tcp see)"),
    Metric("nic.ring_drops", "count", "lower", SIMULATED, "ring overflows"),
    Metric("core.batches", "count", "lower", SIMULATED,
           "GroEngine.receive_batch calls"),
    Metric("core.pkts", "count", "lower", SIMULATED,
           "data packets processed by GRO"),
    Metric("core.us_per_pkt", "us", "lower", HOST,
           "core.self_s per data packet"),
    Metric("core.segments_out", "count", "lower", SIMULATED,
           "segments delivered up the stack"),
    Metric("core.mtus_per_segment", "count", "higher", SIMULATED,
           "batching extent"),
    Metric("core.ooo_share", "ratio", "lower", SIMULATED,
           "data packets that reached GRO out of sequence for their flow, "
           "i.e. left the in-order path"),
    Metric("core.flush_ofo_timeout", "count", "lower", SIMULATED,
           "segments flushed by ofo_timeout"),
    Metric("core.flush_inseq_timeout", "count", "lower", SIMULATED,
           "segments flushed by inseq_timeout"),
    Metric("core.evictions", "count", "lower", SIMULATED, "flow evictions"),
    Metric("core.timeout_checks", "count", "lower", SIMULATED,
           "GroEngine.check_timeouts calls"),
    Metric("tcp.rx_segments", "count", "lower", SIMULATED,
           "segments processed by TCP receivers"),
    Metric("tcp.rx_ooo_segments", "count", "lower", SIMULATED,
           "of those, out of order"),
    Metric("tcp.acks_in", "count", "lower", SIMULATED,
           "ACKs processed by TCP senders"),
    Metric("tcp.us_per_ack", "us", "lower", HOST,
           "self time of TcpSender.on_ack_segment spans per ACK"),
    Metric("tcp.dupacks", "count", "lower", SIMULATED, "duplicate ACKs seen"),
    Metric("tcp.retx_pkts", "count", "lower", SIMULATED,
           "retransmitted wire packets"),
    Metric("tcp.fast_recoveries", "count", "lower", SIMULATED,
           "fast-recovery episodes"),
    Metric("tcp.rtos", "count", "lower", SIMULATED, "retransmission timeouts"),
    Metric("cc.on_ack_calls", "count", "lower", SIMULATED,
           "CongestionControl.on_ack calls"),
    Metric("cc.us_per_ack", "us", "lower", HOST,
           "self time of on_ack spans per call"),
    Metric("workloads.rpcs_completed", "count", "higher", SIMULATED,
           "RPCs delivered in full"),
    Metric("faults.windows_fired", "count", "lower", SIMULATED,
           "fault windows opened"),
    Metric("harness.trace_overhead_x", "x", "lower", HOST,
           "traced / untraced cell_wall_s in the same process"),
    Metric("harness.unattributed_share", "ratio", "lower", HOST,
           "share of the traced cell_wall_s outside the nine layers' spans"),
)


def per_layer_values(cell: Cell, rec: SpanRecorder, summary: dict,
                     ooo_pkts: int) -> Dict[str, float]:
    """Every per-layer metric of one traced repetition, bar the two
    ``harness.*`` ratios (they need the untraced run)."""
    layers = rec.by_layer(summary)
    names = rec.by_name(summary)

    def spans(*suffixes: str) -> List[tuple]:
        return [v for name, v in names.items() if name.endswith(suffixes)]

    def calls(*suffixes: str) -> int:
        return sum(n for _, n in spans(*suffixes))

    def self_us(*suffixes: str) -> float:
        return sum(ns for ns, _ in spans(*suffixes)) / 1e3

    def per(total: float, count: float) -> float:
        return total / count if count else 0.0

    out: Dict[str, float] = {}
    for layer in LAYERS:
        ns, n = layers.get(layer, (0, 0))
        out[f"{layer}.self_s"] = ns / 1e9
        out[f"{layer}.calls"] = n

    engine = cell.engine
    rx_pkts = cell.rx_pkts()
    out["sim.events"] = engine.events_processed
    out["sim.events_per_pkt"] = per(engine.events_processed, rx_pkts)
    out["sim.schedule_calls"] = calls("Engine.schedule", "Engine.schedule_at",
                                      "Engine.post", "Engine.post_at")
    out["sim.timer_arms"] = calls("Timer.arm_at")
    out["sim.tombstones"] = engine.tombstones
    out["sim.compactions"] = engine.compactions
    out["sim.events_allocated"] = engine.events_allocated
    out["sim.us_per_event"] = per(out["sim.self_s"] * 1e6,
                                  engine.events_processed)

    enqueues = calls("QueuedLink.enqueue")
    out["fabric.link_enqueues"] = enqueues
    out["fabric.events_per_hop"] = per(
        summary["sched_from"].get("fabric", 0), enqueues)
    out["fabric.us_per_hop"] = per(out["fabric.self_s"] * 1e6, enqueues)
    out["fabric.switch_forwards"] = calls("Switch.receive")
    out["fabric.route_choices"] = calls("Routing.choose")
    out["fabric.detector_updates"] = calls("ReorderDetector.observe")
    out["fabric.link_drops"] = sum(l.stats.drops for l in cell.links)
    out["fabric.max_queue_kb"] = max(
        l.stats.max_queue_bytes for l in cell.links) / 1024

    senders = [c.sender for c in cell.conns]
    receivers = [c.receiver for c in cell.conns]
    out["net.packets_built"] = (sum(s.packets_sent for s in senders)
                                + sum(r.acks_sent for r in receivers))
    pools = [g.rehydrate_pool() for g in cell.gro_engines()]
    recycled = sum(p.recycled for p in pools)
    out["net.pool_hit_ratio"] = per(
        recycled, recycled + sum(p.allocated for p in pools))
    out["net.tso_bursts"] = calls("segment_tso_burst")

    queues = cell.rx_queues()
    out["nic.rx_pkts"] = rx_pkts
    out["nic.polls"] = sum(q.polls for q in queues)
    out["nic.pkts_per_poll"] = per(rx_pkts, out["nic.polls"])
    out["nic.ring_drops"] = sum(q.dropped for q in queues)

    stats = [g.stats for g in cell.gro_engines()]
    core_pkts = sum(s.packets for s in stats)
    segments = sum(s.segments for s in stats)
    out["core.batches"] = calls(".receive_batch")
    out["core.pkts"] = core_pkts
    out["core.us_per_pkt"] = per(out["core.self_s"] * 1e6, core_pkts)
    out["core.segments_out"] = segments
    out["core.mtus_per_segment"] = per(
        sum(s.batched_mtus for s in stats), segments)
    out["core.ooo_share"] = per(ooo_pkts, core_pkts)
    out["core.flush_ofo_timeout"] = flush_count(cell, FlushReason.OFO_TIMEOUT)
    out["core.flush_inseq_timeout"] = flush_count(
        cell, FlushReason.INSEQ_TIMEOUT)
    out["core.evictions"] = sum(s.total_evictions for s in stats)
    out["core.timeout_checks"] = calls(".check_timeouts")

    acks_in = sum(s.acks_received for s in senders)
    out["tcp.rx_segments"] = sum(r.segments_received for r in receivers)
    out["tcp.rx_ooo_segments"] = sum(r.ooo_segments for r in receivers)
    out["tcp.acks_in"] = acks_in
    out["tcp.us_per_ack"] = per(self_us("TcpSender.on_ack_segment"), acks_in)
    out["tcp.dupacks"] = sum(s.dupacks_received for s in senders)
    out["tcp.retx_pkts"] = sum(s.retransmitted_packets for s in senders)
    out["tcp.fast_recoveries"] = sum(s.fast_retransmits for s in senders)
    out["tcp.rtos"] = sum(s.rtos for s in senders)

    on_ack = calls(".on_ack")
    out["cc.on_ack_calls"] = on_ack
    out["cc.us_per_ack"] = per(self_us(".on_ack"), on_ack)

    out["workloads.rpcs_completed"] = sum(len(r.records) for r in cell.rpcs)
    out["faults.windows_fired"] = (cell.faults.injected
                                   if cell.faults is not None else 0)
    return out


_KIND = {m.name: m.kind for m in PER_LAYER}


def simulated_disagreements(repetitions: List[Dict[str, float]]) -> List[str]:
    """Simulated per-layer metrics that differ between repetitions."""
    return [name for name in repetitions[0]
            if _KIND[name] == SIMULATED
            and any(rep[name] != repetitions[0][name] for rep in repetitions)]
