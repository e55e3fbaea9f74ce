"""End-to-end transport behaviour over the simulated wire."""

from tests.tcp.helpers import DirectPair

from repro.sim.engine import Engine
from repro.sim.time import MS
from repro.tcp.config import TcpConfig
from repro.tcp.connection import Connection


def transfer(gro="juggler", nbytes=1 << 20, duration_ms=20, rate=10.0,
             config=None):
    engine = Engine()
    pair = DirectPair(engine, gro=gro, rate_gbps=rate)
    conn = Connection(engine, pair.a, pair.b, 1000, 80,
                      config or TcpConfig())
    conn.send(nbytes)
    engine.run_until(duration_ms * MS)
    return engine, pair, conn


def test_bulk_transfer_completes():
    engine, pair, conn = transfer()
    assert conn.done
    assert conn.delivered_bytes == 1 << 20


def test_bytes_arrive_in_order_exactly_once():
    engine, pair, conn = transfer(nbytes=1 << 21)
    assert conn.receiver.rcv_nxt == 1 << 21
    assert conn.receiver.ooo_buffered_bytes == 0


def test_no_retransmissions_on_clean_path():
    engine, pair, conn = transfer()
    assert conn.sender.retransmitted_packets == 0
    assert conn.sender.rtos == 0


def test_throughput_approaches_line_rate():
    engine, pair, conn = transfer(nbytes=1 << 26, duration_ms=30,
                                  config=TcpConfig(init_cwnd=1 << 20,
                                                   rx_buffer=8 << 20))
    gbps = conn.delivered_bytes * 8 / engine.now
    assert gbps > 8.0  # 10G line, headers + ramp overheads allowed


def test_vanilla_gro_equivalent_on_in_order_path():
    _, _, with_juggler = transfer(gro="juggler", nbytes=1 << 20)
    _, _, with_vanilla = transfer(gro="vanilla", nbytes=1 << 20)
    assert with_juggler.done and with_vanilla.done
    assert with_juggler.delivered_bytes == with_vanilla.delivered_bytes


def test_loss_recovered_end_to_end():
    engine = Engine()
    pair = DirectPair(engine, link_kwargs={"capacity_bytes": 30_000})
    conn = Connection(engine, pair.a, pair.b, 1000, 80,
                      TcpConfig(init_cwnd=1 << 19))
    conn.send(1 << 21)  # overruns the tiny queue: genuine drops
    engine.run_until(100 * MS)
    assert pair.link_ab.stats.drops > 0
    assert conn.done
    assert conn.receiver.rcv_nxt == 1 << 21


def test_multiple_connections_share_fairly():
    engine = Engine()
    pair = DirectPair(engine, link_kwargs={
        "capacity_bytes": 256_000, "ecn_threshold_bytes": 64_000})
    conns = [Connection(engine, pair.a, pair.b, 1000 + i, 80, TcpConfig())
             for i in range(4)]
    for conn in conns:
        conn.send(1 << 30)
    engine.run_until(40 * MS)
    shares = [c.delivered_bytes for c in conns]
    total = sum(shares)
    assert total > 0
    for share in shares:
        assert share > total * 0.10  # nobody starved


def test_connection_close_tears_down():
    engine, pair, conn = transfer()
    conn.close()
    assert not conn.sender._rto_timer.armed
