"""End-to-end: the paper's headline claim, on the simulated testbed.

One bulk TCP flow through the NetFPGA reordering switch.  With Juggler the
flow holds near line rate and TCP sees no reordering; with the vanilla
kernel batching collapses and throughput craters.
"""

import random

import pytest

from repro.core.config import JugglerConfig
from repro.core.juggler import JugglerGRO
from repro.core.standard_gro import StandardGRO
from repro.fabric.topology import build_netfpga_pair
from repro.nic.nic import NicConfig
from repro.sim.engine import Engine
from repro.sim.time import MS, US
from repro.tcp.config import TcpConfig
from repro.tcp.connection import Connection


def run(gro_kind, reorder_us=250, duration_ms=20, with_cpu=False):
    engine = Engine()
    rng = random.Random(42)
    if gro_kind == "juggler":
        config = JugglerConfig(inseq_timeout=52 * US, ofo_timeout=400 * US)
        factory = lambda d: JugglerGRO(d, config)
    else:
        factory = lambda d: StandardGRO(d)
    bed = build_netfpga_pair(engine, rng, factory, rate_gbps=10.0,
                             reorder_delay_ns=reorder_us * US,
                             nic_config=NicConfig(coalesce_frames=25))
    if with_cpu:
        from repro.cpu.core import CpuCore

        bed.receiver.app_core = CpuCore(engine)
    conn = Connection(engine, bed.sender, bed.receiver, 1000, 80,
                      TcpConfig(init_cwnd=1 << 20, rx_buffer=8 << 20))
    conn.send(1 << 40)
    engine.run_until(8 * MS)
    baseline = conn.delivered_bytes
    engine.run_until((8 + duration_ms) * MS)
    gbps = (conn.delivered_bytes - baseline) * 8 / (duration_ms * MS)
    return gbps, conn, bed.receiver.gro_engines[0].stats


def test_juggler_sustains_line_rate_under_reordering():
    gbps, conn, stats = run("juggler")
    assert gbps > 9.0
    # At most the odd ramp-time hiccup; no sustained recovery churn.
    assert conn.sender.retransmitted_packets <= 2
    assert conn.sender.rtos == 0


def test_juggler_hides_reordering_from_tcp():
    _, conn, stats = run("juggler")
    assert stats.ooo_fraction < 0.01
    assert conn.receiver.ooo_segments <= 2


def test_vanilla_loses_throughput_under_reordering_with_cpu_coupling():
    """The paper's 35% loss needs both halves: the SACK stack contains the
    protocol damage, but the GRO batching collapse saturates the
    application core, closing the receive window."""
    juggler_gbps, _, _ = run("juggler", with_cpu=True)
    vanilla_gbps, conn, _ = run("vanilla", with_cpu=True)
    assert vanilla_gbps < 0.65 * juggler_gbps  # paper: loses >= 35%


def test_vanilla_retransmission_churn_under_reordering():
    _, conn, _ = run("vanilla")
    assert conn.sender.retransmitted_packets > 50  # spurious recoveries


def test_vanilla_batching_collapse_multiplies_segments():
    """§5.1.1: 'the vanilla kernel TCP stack roughly sees 15 times more
    segments ... and sends 15 times more ACKs'."""
    _, jug_conn, jug_stats = run("juggler")
    _, van_conn, van_stats = run("vanilla")
    jug_segs_per_byte = jug_stats.segments / max(jug_conn.delivered_bytes, 1)
    van_segs_per_byte = van_stats.segments / max(van_conn.delivered_bytes, 1)
    assert van_segs_per_byte > 8 * jug_segs_per_byte
    jug_acks_per_byte = (jug_conn.receiver.acks_sent
                         / max(jug_conn.delivered_bytes, 1))
    van_acks_per_byte = (van_conn.receiver.acks_sent
                         / max(van_conn.delivered_bytes, 1))
    assert van_acks_per_byte > 8 * jug_acks_per_byte


def test_juggler_equals_vanilla_without_reordering():
    juggler_gbps, jug_conn, jug_stats = run("juggler", reorder_us=0)
    vanilla_gbps, van_conn, van_stats = run("vanilla", reorder_us=0)
    assert juggler_gbps == pytest.approx(vanilla_gbps, rel=0.02)
    # Never worse than vanilla; holding state across polling intervals can
    # only improve batching on in-order traffic.
    assert jug_stats.batching_extent >= van_stats.batching_extent * 0.95


def test_active_flow_count_stays_tiny():
    """§3.3 / §5.2.2: only a handful of flows need tracking at any time."""
    engine = Engine()
    rng = random.Random(7)
    config = JugglerConfig(inseq_timeout=52 * US, ofo_timeout=400 * US)
    bed = build_netfpga_pair(engine, rng,
                             lambda d: JugglerGRO(d, config),
                             rate_gbps=10.0, reorder_delay_ns=250 * US,
                             nic_config=NicConfig(coalesce_frames=25))
    conns = [Connection(engine, bed.sender, bed.receiver, 2000 + i, 80,
                        TcpConfig(), pacing_gbps=10.0 / 32)
             for i in range(32)]
    for i, conn in enumerate(conns):
        engine.schedule(i * 50 * US, conn.send, 1 << 30)
    samples = []

    def sample():
        samples.append(bed.receiver.gro_engines[0].active_list_len)
        engine.schedule(100 * US, sample)

    engine.schedule(5 * MS, sample)
    engine.run_until(25 * MS)
    assert max(samples) <= 35  # the paper's worst-case observation
    assert sum(samples) / len(samples) < 10
