"""§3.3's security requirement: Juggler's memory must stay strictly bounded
under adversarial traffic, while a Presto-style design grows without limit."""

import random

from repro.core.config import JugglerConfig
from repro.core.juggler import JugglerGRO
from repro.core.presto_gro import PrestoGRO
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet
from repro.sim.time import MS, US


def flood(engine, n_flows, packets_per_flow=3, *, ooo=True, poll_every=64,
          seed=13):
    """An adversary opening a new flow per packet, all out of order."""
    rng = random.Random(seed)
    now = 0
    count = 0
    for i in range(n_flows):
        flow = FiveTuple(rng.randrange(1 << 16), 2, rng.randrange(1 << 16), 80)
        seqs = list(range(packets_per_flow))
        if ooo:
            rng.shuffle(seqs)
        for s in seqs:
            now += 400  # ~30 Gb/s of MTU packets
            engine.receive(Packet(flow, (s + 1) * MSS, MSS), now)
            count += 1
            if count % poll_every == 0:
                engine.poll_complete(now)
    return now


def test_juggler_flow_count_hard_bounded():
    gro = JugglerGRO(lambda s: None, JugglerConfig(table_capacity=64))
    flood(gro, 5_000)
    assert len(gro.table) <= 64


def test_juggler_buffered_bytes_bounded_by_timeouts():
    config = JugglerConfig(inseq_timeout=15 * US, ofo_timeout=50 * US,
                           table_capacity=64)
    gro = JugglerGRO(lambda s: None, config)
    # Worst case: capacity flows, each holding a full ofo_timeout of data.
    # At 40 Gb/s, 50us is ~250 KB *total* across the queue (§3.3's math);
    # per-flow it cannot exceed what arrived within the timeout window.
    now = flood(gro, 2_000)
    gro.check_timeouts(now + 100 * US)
    assert gro.buffered_bytes <= 64 * 3 * MSS  # capacity x flood burst size
    assert gro.resident_state_bytes < 1 << 20  # well under a megabyte


def test_presto_style_state_grows_linearly():
    presto = PrestoGRO(lambda s: None)
    flood(presto, 2_000)
    assert presto.tracked_flows == 2_000  # one entry per attack flow
    juggler = JugglerGRO(lambda s: None, JugglerConfig(table_capacity=64))
    flood(juggler, 2_000)
    # The flow-*table* footprint (the §3.3 attack surface) is what diverges:
    # Presto keeps every connection, Juggler a fixed handful.
    assert presto.tracked_flows > 30 * len(juggler.table)
    # And attackers can double Presto's table for free, not Juggler's.
    flood(presto, 2_000, seed=99)
    flood(juggler, 2_000, seed=99)
    assert presto.tracked_flows > 3_500
    assert len(juggler.table) <= 64


def test_flood_does_not_stall_legitimate_flow():
    """Eviction pressure from an attack flood must not wedge a real flow."""
    config = JugglerConfig(inseq_timeout=15 * US, ofo_timeout=50 * US,
                           table_capacity=8)
    delivered = []
    gro = JugglerGRO(delivered.append, config)
    victim = FiveTuple(1, 2, 1000, 80)
    rng = random.Random(3)
    now = 0
    sent = 0
    for burst in range(40):
        # Legitimate in-order burst...
        for _ in range(4):
            gro.receive(Packet(victim, sent * MSS, MSS), now)
            sent += 1
            now += 400
        # ...interleaved with attack flows.
        for _ in range(16):
            attacker = FiveTuple(rng.randrange(1 << 16), 2,
                                 rng.randrange(1 << 16), 80)
            gro.receive(Packet(attacker, 0, MSS), now)
            now += 400
        gro.poll_complete(now)
    gro.flush_all(now + 1 * MS)
    victim_bytes = sum(s.payload_len for s in delivered
                       if s.flow == victim)
    assert victim_bytes == sent * MSS  # every legitimate byte delivered


def test_non_tcp_traffic_bypasses_flow_table():
    gro = JugglerGRO(lambda s: None, JugglerConfig(table_capacity=4))
    udp_flow = FiveTuple(1, 2, 53, 53, proto=17)
    for i in range(10):
        gro.receive(Packet(udp_flow, i * MSS, MSS), now=i)
    assert len(gro.table) == 0
    assert gro.stats.passthrough_packets == 10
