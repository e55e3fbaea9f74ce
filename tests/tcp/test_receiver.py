"""TCP receiver: reassembly, ACK generation, flow control, DSACK, ECN echo."""

from tests.tcp.helpers import DirectPair

from repro.cpu.core import CpuCore
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet
from repro.net.segment import Segment
from repro.sim.engine import Engine
from repro.sim.time import MS
from repro.tcp.config import TcpConfig
from repro.tcp.receiver import TcpReceiver


def make_receiver(engine=None, config=None, with_core=False):
    engine = engine or Engine()
    pair = DirectPair(engine)
    flow = FiveTuple(0, 1, 1000, 80)
    if with_core:
        pair.b.app_core = CpuCore(engine, "app")
    receiver = TcpReceiver(engine, pair.b, flow, config or TcpConfig())
    acks = []
    pair.a.register_handler(flow.reversed(), acks.append)
    return engine, pair, receiver, acks


def seg(flow, start, n=1):
    return Segment([Packet(flow, start + i * MSS, MSS) for i in range(n)])


def drain(engine):
    engine.run_until(engine.now + 1 * MS)


def test_in_order_advances_rcv_nxt():
    engine, pair, receiver, acks = make_receiver()
    receiver.on_segment(seg(receiver.flow, 0, 3))
    assert receiver.rcv_nxt == 3 * MSS


def test_every_segment_acked_cumulatively():
    engine, pair, receiver, acks = make_receiver()
    receiver.on_segment(seg(receiver.flow, 0))
    receiver.on_segment(seg(receiver.flow, MSS))
    drain(engine)
    acked = [s.packets[0].ack for s in acks]
    assert acked == [MSS, 2 * MSS]


def test_ooo_segment_buffered_and_dupacked():
    engine, pair, receiver, acks = make_receiver()
    receiver.on_segment(seg(receiver.flow, 2 * MSS))
    assert receiver.rcv_nxt == 0
    assert receiver.ooo_buffered_bytes == MSS
    drain(engine)
    assert acks[-1].packets[0].ack == 0  # a duplicate ACK
    assert receiver.dupacks_sent == 1


def test_hole_fill_jumps_watermark():
    engine, pair, receiver, acks = make_receiver()
    receiver.on_segment(seg(receiver.flow, MSS, 2))
    receiver.on_segment(seg(receiver.flow, 0))
    assert receiver.rcv_nxt == 3 * MSS
    assert receiver.ooo_buffered_bytes == 0


def test_sack_blocks_advertised():
    engine, pair, receiver, acks = make_receiver()
    receiver.on_segment(seg(receiver.flow, 2 * MSS))
    receiver.on_segment(seg(receiver.flow, 5 * MSS))
    drain(engine)
    blocks = acks[-1].packets[0].sack
    assert (2 * MSS, 3 * MSS) in blocks
    assert (5 * MSS, 6 * MSS) in blocks


def test_duplicate_triggers_dsack_first_block():
    engine, pair, receiver, acks = make_receiver()
    receiver.on_segment(seg(receiver.flow, 0))
    receiver.on_segment(seg(receiver.flow, 0))  # entire duplicate
    drain(engine)
    dsack = acks[-1].packets[0].sack[0]
    assert dsack == (0, MSS)
    assert receiver.duplicate_segments == 1


def test_ooo_ranges_merge():
    engine, pair, receiver, acks = make_receiver()
    receiver.on_segment(seg(receiver.flow, 3 * MSS))
    receiver.on_segment(seg(receiver.flow, MSS))
    receiver.on_segment(seg(receiver.flow, 2 * MSS))
    assert receiver.ooo_buffered_bytes == 3 * MSS
    assert len(receiver._ooo) == 1


def test_advertised_window_shrinks_with_occupancy():
    engine, pair, receiver, acks = make_receiver(with_core=True)
    start = receiver.advertised_window
    receiver.on_segment(seg(receiver.flow, 0, 10))
    # The app core has not processed it yet: occupancy counts against rwnd.
    assert receiver.advertised_window == start - 10 * MSS
    drain(engine)
    assert receiver.advertised_window == start


def test_on_bytes_callback_reports_watermark():
    engine, pair, receiver, acks = make_receiver()
    marks = []
    receiver.on_bytes = lambda w, now: marks.append(w)
    receiver.on_segment(seg(receiver.flow, 0))
    receiver.on_segment(seg(receiver.flow, 2 * MSS))  # no advance: no mark
    receiver.on_segment(seg(receiver.flow, MSS))
    assert marks == [MSS, 3 * MSS]


def test_ce_bytes_echoed_once():
    engine, pair, receiver, acks = make_receiver()
    marked = seg(receiver.flow, 0)
    marked.packets[0].ce = True
    receiver.on_segment(marked)
    receiver.on_segment(seg(receiver.flow, MSS))
    drain(engine)
    assert acks[0].packets[0].ce_bytes == MSS
    assert acks[1].packets[0].ce_bytes == 0


def test_chained_segment_disjoint_packets_absorbed():
    engine, pair, receiver, acks = make_receiver()
    chain = Segment.chain([
        Packet(receiver.flow, 2 * MSS, MSS),
        Packet(receiver.flow, 0, MSS),
    ])
    receiver.on_segment(chain)
    assert receiver.rcv_nxt == MSS
    assert receiver.ooo_buffered_bytes == MSS


def test_close_unregisters():
    engine, pair, receiver, acks = make_receiver()
    receiver.close()
    pair.b.receive(Packet(receiver.flow, 0, MSS))
    engine.run_until(1 * MS)
    pair.b.drain()
    assert pair.b.stray_segments >= 1
