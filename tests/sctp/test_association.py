"""The SCTP-style message transport, alone and over a reordering fabric."""

import random

import pytest

from repro.core.config import JugglerConfig
from repro.core.juggler import JugglerGRO
from repro.fabric.topology import build_netfpga_pair
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.nic.nic import NicConfig
from repro.sctp.association import SCTP_PROTO, SctpReceiver, SctpSender
from repro.sim.engine import Engine
from repro.sim.time import MS, US


def juggler_factory(protocols=(6, 132)):
    config = JugglerConfig(inseq_timeout=52 * US, ofo_timeout=400 * US,
                           protocols=protocols)
    return lambda deliver: JugglerGRO(deliver, config)


def build(engine, *, reorder_us=0, protocols=(6, 132)):
    bed = build_netfpga_pair(
        engine, random.Random(4), juggler_factory(protocols),
        rate_gbps=10.0, reorder_delay_ns=reorder_us * US,
        nic_config=NicConfig(coalesce_frames=25))
    flow = FiveTuple(0, 1, 5000, 5000, proto=SCTP_PROTO)
    delivered = []
    receiver = SctpReceiver(engine, bed.receiver, flow,
                            on_message=lambda i, t: delivered.append((i, t)))
    sender = SctpSender(engine, bed.sender, flow)
    return bed, sender, receiver, delivered


def test_proto_validation():
    engine = Engine()
    bed, sender, receiver, _ = build(engine)
    tcp_flow = FiveTuple(0, 1, 5000, 5000, proto=6)
    with pytest.raises(ValueError):
        SctpSender(engine, bed.sender, tcp_flow)
    with pytest.raises(ValueError):
        SctpReceiver(engine, bed.receiver, tcp_flow)


def test_message_validation():
    engine = Engine()
    _, sender, _, _ = build(engine)
    with pytest.raises(ValueError):
        sender.send_message(0)


def test_single_message_delivery():
    engine = Engine()
    bed, sender, receiver, delivered = build(engine)
    receiver.expect_message(10_000)
    sender.send_message(10_000)
    engine.run_until(2 * MS)
    assert delivered and delivered[0][0] == 0
    assert receiver.rcv_nxt == 10_000


def test_messages_delivered_in_order():
    engine = Engine()
    bed, sender, receiver, delivered = build(engine)
    sizes = [5_000, 20_000, 150, 70_000]
    for size in sizes:
        receiver.expect_message(size)
        sender.send_message(size)
    engine.run_until(5 * MS)
    assert [i for i, _ in delivered] == [0, 1, 2, 3]


def test_reordering_hidden_by_juggler():
    engine = Engine()
    bed, sender, receiver, delivered = build(engine, reorder_us=250)
    for _ in range(40):
        receiver.expect_message(30_000)
        sender.send_message(30_000)
    engine.run_until(20 * MS)
    assert receiver.messages_delivered == 40
    # Juggler absorbed the path-delay skew: no retransmissions needed.
    assert sender.retransmitted_chunks == 0
    assert sender.rtos == 0
    stats = bed.receiver.gro_engines[0].stats
    assert stats.ooo_fraction < 0.05


def test_without_protocol_registration_juggler_passes_through():
    engine = Engine()
    bed, sender, receiver, delivered = build(engine, reorder_us=250,
                                             protocols=(6,))
    for _ in range(10):
        receiver.expect_message(30_000)
        sender.send_message(30_000)
    engine.run_until(20 * MS)
    stats = bed.receiver.gro_engines[0].stats
    # Everything bypassed the flow table...
    assert stats.passthrough_packets > 0
    assert stats.packets == 0
    # ...so the transport saw the raw reordering (and survived via SACK).
    assert receiver.messages_delivered == 10


def test_loss_recovered_via_gap_reports():
    engine = Engine()
    rng = random.Random(4)
    bed = build_netfpga_pair(
        engine, rng, juggler_factory(),
        rate_gbps=10.0, reorder_delay_ns=0, drop_p=0.01,
        nic_config=NicConfig(coalesce_frames=25))
    flow = FiveTuple(0, 1, 5000, 5000, proto=SCTP_PROTO)
    delivered = []
    receiver = SctpReceiver(engine, bed.receiver, flow,
                            on_message=lambda i, t: delivered.append(i))
    sender = SctpSender(engine, bed.sender, flow, rto_ns=2 * MS)
    for _ in range(20):
        receiver.expect_message(50_000)
        sender.send_message(50_000)
    engine.run_until(100 * MS)
    assert bed.dropper.dropped > 0
    assert receiver.messages_delivered == 20
    assert sender.retransmitted_chunks > 0


def test_window_limits_flight():
    engine = Engine()
    bed, sender, receiver, _ = build(engine)
    sender.window_bytes = 10 * MSS
    receiver.expect_message(1_000_000)
    sender.send_message(1_000_000)
    assert sender.flight_bytes <= 10 * MSS
