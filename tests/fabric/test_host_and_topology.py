"""Host demultiplexing and topology builders."""

import random

import pytest

from repro.core.config import JugglerConfig
from repro.core.juggler import JugglerGRO
from repro.core.standard_gro import StandardGRO
from repro.fabric.host import Host
from repro.fabric.topology import (
    build_clos,
    build_netfpga_pair,
    build_priority_dumbbell,
)
from repro.fabric.routing import EcmpRouting
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet
from repro.sim.engine import Engine
from repro.sim.time import MS

FLOW = FiveTuple(0, 1, 1000, 80)


def gro_factory(deliver):
    return StandardGRO(deliver)


def test_host_dispatches_to_registered_handler():
    engine = Engine()
    host = Host(engine, 1, gro_factory)
    got = []
    host.register_handler(FLOW, got.append)
    host.receive(Packet(FLOW, 0, MSS))
    engine.run()
    host.drain()
    assert len(got) == 1


def test_host_counts_stray_segments():
    engine = Engine()
    host = Host(engine, 1, gro_factory)
    host.receive(Packet(FLOW, 0, MSS))
    engine.run()
    host.drain()
    assert host.stray_segments == 1


def test_host_duplicate_registration_rejected():
    host = Host(Engine(), 1, gro_factory)
    host.register_handler(FLOW, lambda s: None)
    with pytest.raises(ValueError):
        host.register_handler(FLOW, lambda s: None)


def test_host_unregister_is_idempotent():
    host = Host(Engine(), 1, gro_factory)
    host.register_handler(FLOW, lambda s: None)
    host.unregister_handler(FLOW)
    host.unregister_handler(FLOW)


def test_host_transmit_requires_tx():
    host = Host(Engine(), 1, gro_factory)
    with pytest.raises(RuntimeError):
        host.transmit(Packet(FLOW, 0, MSS))


def test_netfpga_pair_end_to_end():
    engine = Engine()
    bed = build_netfpga_pair(engine, random.Random(0), gro_factory,
                             reorder_delay_ns=0)
    got = []
    bed.receiver.register_handler(FLOW, got.append)
    bed.sender.transmit(Packet(FLOW, 0, MSS))
    engine.run_until(1 * MS)
    assert sum(s.mtus for s in got) == 1


def test_netfpga_pair_ack_path_reaches_sender():
    engine = Engine()
    bed = build_netfpga_pair(engine, random.Random(0), gro_factory,
                             reorder_delay_ns=0)
    got = []
    rev = FLOW.reversed()
    bed.sender.register_handler(rev, got.append)
    bed.receiver.transmit(Packet(rev, 0, 0))
    engine.run_until(1 * MS)
    assert len(got) == 1


def test_netfpga_dropper_installed_when_requested():
    engine = Engine()
    bed = build_netfpga_pair(engine, random.Random(0), gro_factory,
                             drop_p=0.5)
    assert bed.dropper is not None
    assert bed.dropper.p == 0.5


def test_netfpga_negative_reorder_delay_rejected_at_construction():
    # The slow queue's delay is prop + reorder: negative, it used to build
    # and then raise "cannot schedule ... in the past" mid-run.
    with pytest.raises(ValueError, match="netfpga.slow"):
        build_netfpga_pair(Engine(), random.Random(0), gro_factory,
                           reorder_delay_ns=-1000)


def test_dumbbell_connectivity_both_directions():
    engine = Engine()
    bed = build_priority_dumbbell(engine, gro_factory)
    flow = FiveTuple(bed.senders[0].host_id, bed.receivers[0].host_id,
                     1000, 80)
    got = []
    bed.receivers[0].register_handler(flow, got.append)
    back = []
    bed.senders[0].register_handler(flow.reversed(), back.append)
    bed.senders[0].transmit(Packet(flow, 0, MSS))
    bed.receivers[0].transmit(Packet(flow.reversed(), 0, 0))
    engine.run_until(1 * MS)
    for host in bed.senders + bed.receivers:
        host.drain()
    assert len(got) == 1
    assert len(back) == 1


def test_dumbbell_bottleneck_has_two_priorities():
    bed = build_priority_dumbbell(Engine(), gro_factory)
    assert len(bed.bottleneck._queues) == 2


def test_clos_host_ids_and_counts():
    engine = Engine()
    net = build_clos(engine, gro_factory, lambda: EcmpRouting(),
                     n_tors=3, hosts_per_tor=4, n_spines=2)
    assert len(net.hosts) == 12
    assert [h.host_id for h in net.hosts] == list(range(12))
    assert len(net.uplinks) == 3 and len(net.uplinks[0]) == 2
    assert len(net.downlinks) == 2 and len(net.downlinks[0]) == 3


def test_clos_cross_tor_delivery():
    engine = Engine()
    net = build_clos(engine, gro_factory, lambda: EcmpRouting(),
                     n_tors=2, hosts_per_tor=2, n_spines=2)
    src, dst = net.hosts[0], net.hosts[3]
    flow = FiveTuple(src.host_id, dst.host_id, 1000, 80)
    got = []
    dst.register_handler(flow, got.append)
    src.transmit(Packet(flow, 0, MSS))
    engine.run_until(1 * MS)
    dst.drain()
    assert sum(s.mtus for s in got) == 1


def test_clos_same_tor_stays_local():
    engine = Engine()
    net = build_clos(engine, gro_factory, lambda: EcmpRouting(),
                     n_tors=2, hosts_per_tor=2, n_spines=2)
    src, dst = net.hosts[0], net.hosts[1]
    flow = FiveTuple(src.host_id, dst.host_id, 1000, 80)
    got = []
    dst.register_handler(flow, got.append)
    src.transmit(Packet(flow, 0, MSS))
    engine.run_until(1 * MS)
    dst.drain()
    assert sum(s.mtus for s in got) == 1
    # No uplink carried it.
    assert all(l.stats.packets == 0 for row in net.uplinks for l in row)


def test_gro_engines_accessor():
    engine = Engine()
    host = Host(engine, 1, lambda d: JugglerGRO(d, JugglerConfig()))
    assert len(host.gro_engines) == 1
    assert isinstance(host.gro_engines[0], JugglerGRO)
