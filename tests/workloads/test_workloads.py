"""RPC generators and the background packet source."""

import random

import pytest

from tests.tcp.helpers import DirectPair

from repro.sim.engine import Engine
from repro.sim.time import MS
from repro.tcp.connection import Connection
from repro.workloads.background import PoissonPacketSource, DiscardSink
from repro.workloads.rpc import PingPongRpc, RpcWorkload


def make_pair(engine):
    pair = DirectPair(engine, rate_gbps=10.0)
    return pair


def test_pingpong_measures_each_message():
    engine = Engine()
    pair = make_pair(engine)
    conn = Connection(engine, pair.a, pair.b, 1000, 80)
    workload = PingPongRpc(engine, conn, rpc_bytes=10_000, max_rpcs=5)
    workload.start()
    engine.run_until(50 * MS)
    assert len(workload.records) == 5
    assert all(r.latency_ns > 0 for r in workload.records)
    assert all(r.size == 10_000 for r in workload.records)


def test_pingpong_gap_slows_cadence():
    engine = Engine()
    pair = make_pair(engine)
    conn = Connection(engine, pair.a, pair.b, 1000, 80)
    workload = PingPongRpc(engine, conn, rpc_bytes=1000, gap_ns=1 * MS,
                           max_rpcs=3)
    workload.start()
    engine.run_until(10 * MS)
    assert len(workload.records) == 3
    starts = [r.start_ns for r in workload.records]
    assert starts[1] - starts[0] >= 1 * MS


def test_pingpong_pipeline_keeps_messages_outstanding():
    engine = Engine()
    pair = make_pair(engine)
    conn = Connection(engine, pair.a, pair.b, 1000, 80)
    workload = PingPongRpc(engine, conn, rpc_bytes=1000, pipeline=4)
    workload.start()
    assert conn.sender.data_target == 4000  # four queued immediately
    engine.run_until(5 * MS)
    assert len(workload.records) > 4


def test_pingpong_validates_arguments():
    engine = Engine()
    pair = make_pair(engine)
    conn = Connection(engine, pair.a, pair.b, 1000, 80)
    with pytest.raises(ValueError):
        PingPongRpc(engine, conn, rpc_bytes=0)
    with pytest.raises(ValueError):
        PingPongRpc(engine, conn, rpc_bytes=10, pipeline=0)


def test_rpc_workload_open_loop_rate():
    engine = Engine()
    pair = make_pair(engine)
    conns = [Connection(engine, pair.a, pair.b, 1000 + i, 80)
             for i in range(4)]
    workload = RpcWorkload(engine, random.Random(1), conns,
                           rpc_bytes=10_000, load_gbps=2.0)
    workload.start()
    engine.run_until(20 * MS)
    # Offered load ~2 Gb/s -> ~50 RPCs per ms at 10KB each... check count.
    expected = 2.0 * 20 * MS / (10_000 * 8)
    assert workload.issued == pytest.approx(expected, rel=0.25)
    assert len(workload.records) > 0.8 * workload.issued


def test_rpc_workload_latency_includes_queueing():
    engine = Engine()
    pair = make_pair(engine)
    conn = Connection(engine, pair.a, pair.b, 1000, 80)
    # Overload a single session: later RPCs queue behind earlier ones.
    workload = RpcWorkload(engine, random.Random(1), [conn],
                           rpc_bytes=100_000, load_gbps=20.0)
    workload.start()
    engine.run_until(10 * MS)
    lats = workload.latencies_ns()
    assert len(lats) > 5
    assert max(lats) > 3 * min(lats)


def test_rpc_workload_stop_at():
    engine = Engine()
    pair = make_pair(engine)
    conn = Connection(engine, pair.a, pair.b, 1000, 80)
    workload = RpcWorkload(engine, random.Random(1), [conn],
                           rpc_bytes=1000, load_gbps=1.0,
                           stop_at_ns=5 * MS)
    workload.start()
    engine.run_until(20 * MS)
    issued_at_stop = workload.issued
    engine.run_until(30 * MS)
    assert workload.issued == issued_at_stop


def test_rpc_workload_validates_arguments():
    engine = Engine()
    with pytest.raises(ValueError):
        RpcWorkload(engine, random.Random(1), [], rpc_bytes=10, load_gbps=1)


def test_poisson_source_hits_target_load():
    engine = Engine()
    sink = DiscardSink()
    source = PoissonPacketSource(engine, random.Random(2), sink,
                                 load_gbps=5.0, src=1, dst=2)
    source.start()
    engine.run_until(20 * MS)
    gbps = sink.bytes * 8 / engine.now
    assert gbps == pytest.approx(5.0, rel=0.1)


def test_poisson_source_spreads_flows():
    engine = Engine()
    seen = set()

    class FlowSink:
        def receive(self, packet):
            seen.add(packet.flow)

    source = PoissonPacketSource(engine, random.Random(2), FlowSink(),
                                 load_gbps=5.0, src=1, dst=2, num_flows=16)
    source.start()
    engine.run_until(5 * MS)
    assert len(seen) == 16


def test_poisson_source_sequences_per_flow_increase():
    engine = Engine()
    last = {}
    ok = []

    class SeqSink:
        def receive(self, packet):
            prev = last.get(packet.flow, -1)
            ok.append(packet.seq > prev)
            last[packet.flow] = packet.seq

    source = PoissonPacketSource(engine, random.Random(2), SeqSink(),
                                 load_gbps=5.0, src=1, dst=2)
    source.start()
    engine.run_until(2 * MS)
    assert all(ok)


def test_poisson_source_stop_at():
    engine = Engine()
    sink = DiscardSink()
    source = PoissonPacketSource(engine, random.Random(2), sink,
                                 load_gbps=5.0, src=1, dst=2,
                                 stop_at_ns=1 * MS)
    source.start()
    engine.run_until(10 * MS)
    assert sink.bytes * 8 / (1 * MS) == pytest.approx(5.0, rel=0.3)
