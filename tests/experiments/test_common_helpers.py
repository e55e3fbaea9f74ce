"""Experiment-support helpers: the measurement window, the CPU model,
unit conversions."""

import pytest

from repro.experiments.cell import Cell, Window
from repro.experiments.common import gbps
from repro.harness.experiment import GroKind
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet
from repro.nic.nic import NicConfig
from repro.sim.time import MS, US
from repro.tcp.config import TcpConfig

TIMEOUTS = dict(inseq_us=52, ofo_us=300)


def bulk_pair(num_queues=1, flows=1):
    """A pair cell with ``flows`` bulk senders, not yet run."""
    cell = Cell(7, GroKind.JUGGLER, **TIMEOUTS)
    bed = cell.pair("fabric", reorder_delay_ns=250 * US,
                    nic_config=NicConfig(num_queues=num_queues,
                                         coalesce_frames=25))
    for conn in cell.flows(bed.sender, bed.receiver, flows, 1000,
                           TcpConfig(init_cwnd=1 << 18)):
        conn.send(1 << 30)
    return cell, bed


def hand_counters(cell, bed):
    stats = [g.stats for g in bed.receiver.gro_engines]
    return (sum(c.delivered_bytes for c in cell.conns),
            sum(c.receiver.acks_sent for c in cell.conns),
            sum(s.packets for s in stats),
            sum(s.segments for s in stats),
            sum(s.batched_mtus for s in stats),
            sum(s.ooo_segments for s in stats))


def test_snapshot_diffs():
    """A Window is the counters' difference between the cut and the stop:
    nothing counted during the warm-up leaks in."""
    cell, _ = bulk_pair()
    window = cell.measure(2 * MS, 5 * MS)

    ref, bed = bulk_pair()  # the same universe, cut by hand
    ref.engine.run_until(2 * MS)
    before = hand_counters(ref, bed)
    assert all(n > 0 for n in before[:5])  # there is a warm-up to leak
    ref.engine.run_until(5 * MS)
    after = hand_counters(ref, bed)

    assert (window.delivered_bytes, window.acks, window.packets,
            window.segments, window.batched_mtus,
            window.ooo_segments) == tuple(a - b
                                          for a, b in zip(after, before))
    assert window.window_ns == 3 * MS
    assert window.goodput_gbps == gbps(window.delivered_bytes, 3 * MS)
    assert window.batching == window.batched_mtus / window.segments
    assert cell.totals() - cell.totals() == Window(*[0] * 12)


def test_snapshot_batching_zero_segments():
    cell = Cell(7, GroKind.JUGGLER, **TIMEOUTS)
    cell.pair("fabric")
    idle = cell.measure(1 * MS, 2 * MS)
    assert idle.segments == 0
    assert idle.batching == 0.0
    assert idle.goodput_gbps == 0.0


def test_merged_stats_sums_engines():
    """measure() sums over every engine of a 4-queue receiver."""
    cell, bed = bulk_pair(num_queues=4, flows=16)
    window = cell.measure(0, 3 * MS)
    per_queue = [g.stats.packets for g in bed.receiver.gro_engines]
    assert len(per_queue) == 4
    assert sum(1 for n in per_queue if n > 0) >= 2
    assert window.packets == sum(per_queue)
    assert window.segments == sum(g.stats.segments
                                  for g in bed.receiver.gro_engines)
    assert cell.gro_engines() == bed.receiver.gro_engines


def test_host_cpu_windows():
    """The RX core is priced from the counters of every engine the
    cell's factory built, measured host or not (here none is)."""
    cell = Cell(0, GroKind.VANILLA, cpu=True, **TIMEOUTS)
    engines = [cell.gro_factory(lambda segment: None) for _ in range(2)]
    assert cell.rx_engines == engines and cell.gro_engines() == []
    warmup = engines[0]
    warmup.receive(Packet(FiveTuple(3, 2, 1000, 80), 0, MSS), 0)
    warmup.poll_complete(0)
    before = cell.totals()
    flow = FiveTuple(1, 2, 1000, 80)
    for gro in engines:
        # 4 in-order MSS packets + 1 pure ACK, one poll: 3425 ns each
        # (see tests/cpu/test_cpu_model.py).
        gro.receive_batch([Packet(flow, k * MSS, MSS) for k in range(4)]
                          + [Packet(flow.reversed(), 0, 0)], 0)
        gro.poll_complete(0)
    cell.app_core.submit(250)
    cell.engine.run_until(10_000)
    window = cell.totals() - before
    assert window.rx_busy_ns == 2 * 3425.0
    assert window.rx_core_pct == pytest.approx(68.5)
    assert window.app_core_pct == pytest.approx(2.5)
    assert Cell(0, GroKind.JUGGLER, **TIMEOUTS).measure(0, 1000).rx_core_pct == 0.0


def test_host_cpu_attach():
    from repro.core.standard_gro import StandardGRO
    from repro.fabric.host import Host

    cell = Cell(0, GroKind.VANILLA, cpu=True, **TIMEOUTS)
    host = Host(cell.engine, 1, lambda d: StandardGRO(d))
    cell.measure_host(host)
    assert host.app_core is cell.app_core
    bare = Host(cell.engine, 2, lambda d: StandardGRO(d))
    Cell(0, GroKind.VANILLA, **TIMEOUTS).measure_host(bare)
    assert bare.app_core is None


def test_gbps_conversion():
    assert gbps(1250, 1000) == pytest.approx(10.0)
    assert gbps(100, 0) == 0.0


def test_experiment_modules_render_strings():
    """Every experiment module's render() produces printable text."""
    from repro.experiments import (
        ablations,
        fig12_inseq_timeout,
        fig13_ofo_timeout_throughput,
        fig14_ofo_timeout_latency,
        sec512_latency_overhead,
    )

    p12 = fig12_inseq_timeout.Fig12Point(250, 0, 25.0, 50.0, 40.0, 9.5)
    assert "batching" in fig12_inseq_timeout.render([p12])

    p13 = fig13_ofo_timeout_throughput.Fig13Point(250, 100, 9.4, 0, 2)
    assert "throughput" in fig13_ofo_timeout_throughput.render([p13])

    p14 = fig14_ofo_timeout_latency.Fig14Point(250, 100, 900.0, 400.0, 100)
    assert "latency" in fig14_ofo_timeout_latency.render([p14])

    point = ablations.AblationPoint("evict=fifo", 0.1, 0.0, 0, 0, 9.0)
    assert ablations.render([point]).startswith("Eviction policy:\n")

    sp = sec512_latency_overhead.Sec512Point(
        __import__("repro.harness.experiment",
                   fromlist=["GroKind"]).GroKind.JUGGLER, 11.0, 12.0, 100)
    assert "11" in sec512_latency_overhead.render([sp])
