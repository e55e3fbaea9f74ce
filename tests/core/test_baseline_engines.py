"""StandardGRO, ChainedGRO and PrestoGRO baselines."""

from repro.core.chained_gro import ChainedGRO
from repro.core.config import JugglerConfig
from repro.core.flush import FlushReason
from repro.core.presto_gro import PrestoGRO
from repro.core.standard_gro import StandardGRO
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.flags import TcpFlags
from repro.net.packet import Packet
from repro.net.segment import BatchingMode

FLOW = FiveTuple(1, 2, 1000, 80)


def pkt(seq, size=MSS, flow=FLOW, **kw):
    return Packet(flow, seq, size, **kw)


def collect(engine_cls, *args, **kw):
    out = []
    engine = engine_cls(out.append, *args, **kw)
    return engine, out


# --- StandardGRO --------------------------------------------------------------


def test_standard_merges_in_order():
    gro, out = collect(StandardGRO)
    for i in range(5):
        gro.receive(pkt(i * MSS), now=i)
    gro.poll_complete(now=10)
    assert len(out) == 1
    assert out[0].mtus == 5


def test_standard_flushes_on_out_of_sequence():
    gro, out = collect(StandardGRO)
    gro.receive(pkt(0), now=0)
    gro.receive(pkt(2 * MSS), now=1)  # not next in sequence
    assert len(out) == 1
    assert gro.stats.flush_reasons[FlushReason.OUT_OF_SEQUENCE] == 1


def test_standard_reordering_collapses_batching():
    import random

    rng = random.Random(2)
    order = list(range(40))
    rng.shuffle(order)
    gro, out = collect(StandardGRO)
    for i, idx in enumerate(order):
        gro.receive(pkt(idx * MSS), now=i)
    gro.poll_complete(now=100)
    assert gro.stats.batching_extent < 3  # the paper's ~15x segment blowup


def test_standard_flushes_all_at_poll_end():
    gro, out = collect(StandardGRO)
    gro.receive(pkt(0), now=0)
    assert not out
    gro.poll_complete(now=5)
    assert len(out) == 1
    assert gro.stats.flush_reasons[FlushReason.POLL_END] == 1


def test_standard_no_state_across_polls():
    gro, out = collect(StandardGRO)
    gro.receive(pkt(0), now=0)
    gro.poll_complete(now=5)
    gro.receive(pkt(MSS), now=10)  # would merge if state survived
    gro.poll_complete(now=15)
    assert len(out) == 2


def test_standard_segment_size_cap():
    gro, out = collect(StandardGRO)
    for i in range(50):
        gro.receive(pkt(i * MSS), now=i)
    assert any(r is FlushReason.SEGMENT_FULL
               for r in gro.stats.flush_reasons)
    assert all(s.payload_len <= 64 * 1024 for s in out)


def test_standard_push_flushes_immediately():
    gro, out = collect(StandardGRO)
    gro.receive(pkt(0), now=0)
    gro.receive(pkt(MSS, flags=TcpFlags.ACK | TcpFlags.PSH), now=1)
    assert len(out) == 1
    assert out[0].mtus == 2


def test_standard_unmergeable_headers():
    gro, out = collect(StandardGRO)
    gro.receive(pkt(0), now=0)
    gro.receive(pkt(MSS, ce=True), now=1)
    assert gro.stats.flush_reasons[FlushReason.UNMERGEABLE] == 1


def test_standard_pure_ack_passthrough():
    gro, out = collect(StandardGRO)
    gro.receive(pkt(0, 0), now=0)
    assert len(out) == 1
    assert gro.stats.passthrough_packets == 1


def test_standard_delivers_ooo_to_tcp():
    gro, out = collect(StandardGRO)
    gro.receive(pkt(2 * MSS), now=0)
    gro.receive(pkt(0), now=1)
    gro.poll_complete(now=5)
    assert gro.stats.ooo_segments > 0


# --- ChainedGRO ----------------------------------------------------------------


def test_chained_batches_regardless_of_order():
    gro, out = collect(ChainedGRO)
    gro.receive(pkt(2 * MSS), now=0)
    gro.receive(pkt(0), now=1)
    gro.receive(pkt(MSS), now=2)
    gro.poll_complete(now=5)
    assert len(out) == 1
    assert out[0].mtus == 3
    assert out[0].mode is BatchingMode.LINKED_LIST


def test_chained_preserves_arrival_order_in_chain():
    gro, out = collect(ChainedGRO)
    gro.receive(pkt(2 * MSS), now=0)
    gro.receive(pkt(0), now=1)
    gro.poll_complete(now=5)
    assert [p.seq for p in out[0].packets] == [2 * MSS, 0]


def test_chained_size_cap():
    gro, out = collect(ChainedGRO)
    for i in range(50):
        gro.receive(pkt(i * MSS), now=i)
    assert [s.mtus for s in out] == [44]  # no room for a 45th MSS in 64 KB
    assert all(s.payload_len <= 64 * 1024 for s in out)


def test_chained_push_flushes():
    gro, out = collect(ChainedGRO)
    gro.receive(pkt(0), now=0)
    gro.receive(pkt(MSS, flags=TcpFlags.ACK | TcpFlags.PSH), now=1)
    assert len(out) == 1


def test_chained_flush_all():
    gro, out = collect(ChainedGRO)
    gro.receive(pkt(0), now=0)
    gro.flush_all(now=1)
    assert len(out) == 1
    assert gro.stats.flush_reasons[FlushReason.SHUTDOWN] == 1


# --- PrestoGRO -----------------------------------------------------------------


def test_presto_tracks_every_flow():
    out = []
    gro = PrestoGRO(out.append)
    for i in range(100):
        gro.receive(pkt(0, flow=FiveTuple(i, 2, 1000, 80)), now=i)
    assert gro.tracked_flows == 100
    assert gro.stats.total_evictions == 0


def test_presto_memory_grows_without_bound():
    out = []
    gro = PrestoGRO(out.append)
    before = gro.resident_state_bytes
    for i in range(50):
        gro.receive(pkt(0, flow=FiveTuple(i, 2, 1000, 80)), now=i)
    # 96 bytes of flow state per connection plus the buffered payload.
    expected = 50 * 96 + gro.buffered_bytes
    assert gro.resident_state_bytes - before == expected
    assert gro.tracked_flows == 50


def test_presto_inherits_timeouts_from_config():
    from repro.sim.time import US

    out = []
    gro = PrestoGRO(out.append, JugglerConfig(inseq_timeout=5 * US,
                                              ofo_timeout=9 * US))
    assert gro.config.inseq_timeout == 5 * US
    assert gro.config.ofo_timeout == 9 * US
    assert gro.config.table_capacity > 1_000_000
