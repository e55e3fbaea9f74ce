"""Generality check: the same Juggler instance serves TCP and SCTP at once,
with per-transport passthrough behaviour controlled by configuration."""

import random

from repro.core.config import JugglerConfig
from repro.core.juggler import JugglerGRO
from repro.fabric.topology import build_netfpga_pair
from repro.net.addr import FiveTuple
from repro.nic.nic import NicConfig
from repro.sctp.association import SCTP_PROTO, SctpReceiver, SctpSender
from repro.sim.engine import Engine
from repro.sim.time import MS, US
from repro.tcp.config import TcpConfig
from repro.tcp.connection import Connection


def test_mixed_transports_share_one_gro_instance():
    engine = Engine()
    config = JugglerConfig(inseq_timeout=52 * US, ofo_timeout=400 * US,
                           protocols=(6, SCTP_PROTO))
    bed = build_netfpga_pair(
        engine, random.Random(6),
        lambda d: JugglerGRO(d, config),
        rate_gbps=10.0, reorder_delay_ns=250 * US,
        nic_config=NicConfig(num_queues=1, coalesce_frames=25))

    tcp_conn = Connection(engine, bed.sender, bed.receiver, 1000, 80,
                          TcpConfig(), pacing_gbps=4.0)
    tcp_conn.send(1 << 23)

    sctp_flow = FiveTuple(0, 1, 6000, 6000, proto=SCTP_PROTO)
    delivered = []
    sctp_rx = SctpReceiver(engine, bed.receiver, sctp_flow,
                           on_message=lambda i, t: delivered.append(i))
    sctp_tx = SctpSender(engine, bed.sender, sctp_flow)
    for _ in range(30):
        sctp_rx.expect_message(40_000)
        sctp_tx.send_message(40_000)

    engine.run_until(50 * MS)

    # Both transports made steady progress over the same reordering path.
    assert tcp_conn.delivered_bytes == 1 << 23
    assert sctp_rx.messages_delivered == 30
    # And both were tracked by the one shared gro_table.
    gro = bed.receiver.gro_engines[0]
    assert gro.stats.flows_created >= 2
    # Reordering was absorbed for both: no OOO deliveries to speak of.
    assert gro.stats.ooo_fraction < 0.05
    assert tcp_conn.sender.rtos == 0
    assert sctp_tx.rtos == 0
