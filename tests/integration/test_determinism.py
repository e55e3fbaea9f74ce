"""The whole simulation must be bit-for-bit deterministic given a seed —
experiments are only comparable (Juggler vs vanilla on "the same" workload)
because of this property."""

import random

from repro.core.config import JugglerConfig
from repro.core.juggler import JugglerGRO
from repro.fabric.topology import build_netfpga_pair
from repro.nic.nic import NicConfig
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.time import MS, US
from repro.tcp.config import TcpConfig
from repro.tcp.connection import Connection


def run_fingerprint(seed):
    engine = Engine()
    rng = random.Random(seed)
    config = JugglerConfig(inseq_timeout=52 * US, ofo_timeout=400 * US)
    bed = build_netfpga_pair(engine, rng,
                             lambda d: JugglerGRO(d, config),
                             rate_gbps=10.0, reorder_delay_ns=250 * US,
                             nic_config=NicConfig(coalesce_frames=25))
    conn = Connection(engine, bed.sender, bed.receiver, 1000, 80,
                      TcpConfig())
    conn.send(1 << 24)
    engine.run_until(10 * MS)
    stats = bed.receiver.gro_engines[0].stats
    return (
        conn.delivered_bytes,
        conn.sender.snd_nxt,
        conn.sender.packets_sent,
        conn.receiver.acks_sent,
        stats.segments,
        stats.batched_mtus,
        stats.merges,
        engine.events_processed,
    )


def test_identical_seeds_identical_universe():
    assert run_fingerprint(7) == run_fingerprint(7)


def test_different_seeds_different_reordering():
    assert run_fingerprint(7) != run_fingerprint(8)


def test_experiment_cells_are_reproducible():
    from repro.experiments.fig13_ofo_timeout_throughput import (
        Fig13Params, run_cell)

    params = Fig13Params(warmup_ms=5, measure_ms=5)
    a = run_cell(params, reorder_us=250, ofo_us=300)
    b = run_cell(params, reorder_us=250, ofo_us=300)
    assert a.throughput_gbps == b.throughput_gbps
    assert a.fast_retransmits == b.fast_retransmits


def test_rng_registry_isolates_components():
    """Drawing extra randomness in one stream must not shift another."""
    reg_a = RngRegistry(5)
    spray_a = reg_a.stream("spray")
    _ = [reg_a.stream("noise").random() for _ in range(100)]
    value_a = spray_a.random()

    reg_b = RngRegistry(5)
    value_b = reg_b.stream("spray").random()
    assert value_a == value_b
