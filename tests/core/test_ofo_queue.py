"""Out-of-order queue invariants and merging behaviour."""

from repro.core.ofo_queue import OfoQueue
from repro.net.addr import FiveTuple
from repro.net.constants import MSS, MAX_GRO_SEGMENT
from repro.net.flags import TcpFlags
from repro.net.packet import Packet

FLOW = FiveTuple(1, 2, 1000, 80)


def pkt(seq, size=MSS, **kw):
    return Packet(FLOW, seq, size, **kw)


def seqs(queue):
    return [(n.seq, n.end_seq) for n in queue.nodes]


def test_insert_into_empty():
    q = OfoQueue()
    result = q.insert(pkt(0))
    assert not result.merged and not result.duplicate
    assert seqs(q) == [(0, MSS)]


def test_in_order_inserts_merge_into_one_node():
    q = OfoQueue()
    for i in range(5):
        q.insert(pkt(i * MSS))
    assert len(q) == 1
    assert seqs(q) == [(0, 5 * MSS)]


def test_gap_creates_second_node():
    q = OfoQueue()
    q.insert(pkt(0))
    q.insert(pkt(2 * MSS))
    assert seqs(q) == [(0, MSS), (2 * MSS, 3 * MSS)]


def test_hole_fill_coalesces_nodes():
    q = OfoQueue()
    q.insert(pkt(0))
    q.insert(pkt(2 * MSS))
    result = q.insert(pkt(MSS))
    assert result.merged
    assert seqs(q) == [(0, 3 * MSS)]


def test_prepend_merges_at_node_head():
    q = OfoQueue()
    q.insert(pkt(MSS))
    result = q.insert(pkt(0))
    assert result.merged
    assert seqs(q) == [(0, 2 * MSS)]


def test_duplicate_detected():
    q = OfoQueue()
    q.insert(pkt(0))
    result = q.insert(pkt(0))
    assert result.duplicate
    assert seqs(q) == [(0, MSS)]


def test_overlap_with_successor_detected():
    q = OfoQueue()
    q.insert(pkt(MSS))
    result = q.insert(pkt(0, 2 * MSS))
    assert result.duplicate


def test_unmergeable_neighbours_stay_separate():
    q = OfoQueue()
    q.insert(pkt(0))
    q.insert(pkt(MSS, ce=True))
    assert len(q) == 2
    assert seqs(q) == [(0, MSS), (MSS, 2 * MSS)]


def test_max_payload_limits_merging():
    q = OfoQueue(max_payload=2 * MSS)
    for i in range(4):
        q.insert(pkt(i * MSS))
    assert all(n.payload_len <= 2 * MSS for n in q.nodes)
    assert sum(n.mtus for n in q.nodes) == 4


def test_psh_closes_node():
    q = OfoQueue()
    q.insert(pkt(0, flags=TcpFlags.ACK | TcpFlags.PSH))
    result = q.insert(pkt(MSS))
    assert not result.merged
    assert len(q) == 2


def test_nodes_stay_sorted_and_disjoint_random_order():
    import random

    rng = random.Random(4)
    order = list(range(50))
    rng.shuffle(order)
    q = OfoQueue()
    for i in order:
        q.insert(pkt(i * MSS))
    assert seqs(q) == [(0, 50 * MSS)]


def test_pop_inseq_run_takes_contiguous_prefix():
    q = OfoQueue()
    q.insert(pkt(0))
    q.insert(pkt(MSS))
    q.insert(pkt(3 * MSS))
    run = q.pop_inseq_run(0)
    assert [(s.seq, s.end_seq) for s in run] == [(0, 2 * MSS)]
    assert seqs(q) == [(3 * MSS, 4 * MSS)]


def test_pop_inseq_run_spans_unmergeable_boundary():
    q = OfoQueue()
    q.insert(pkt(0))
    q.insert(pkt(MSS, ce=True))
    run = q.pop_inseq_run(0)
    assert len(run) == 2
    assert not q


def test_pop_inseq_run_empty_when_hole_at_head():
    q = OfoQueue()
    q.insert(pkt(MSS))
    assert q.pop_inseq_run(0) == []
    assert len(q) == 1


def test_pop_all_drains_in_order():
    q = OfoQueue()
    q.insert(pkt(4 * MSS))
    q.insert(pkt(0))
    q.insert(pkt(2 * MSS))
    drained = q.pop_all()
    assert [s.seq for s in drained] == [0, 2 * MSS, 4 * MSS]
    assert not q


def test_buffered_bytes_and_packets():
    q = OfoQueue()
    q.insert(pkt(0))
    q.insert(pkt(2 * MSS, 100))
    assert q.buffered_bytes == MSS + 100
    assert [n.mtus for n in q.nodes] == [1, 1]


def test_scan_count_small_for_near_head_insert():
    q = OfoQueue()
    for i in range(2, 40):
        q.insert(pkt(i * MSS, ce=bool(i % 2)))  # alternating: many nodes
    assert len(q.nodes) > 10
    result = q.insert(pkt(0))
    # Two-ended doubly-linked-list model: a head-side insert is cheap.
    assert result.scanned <= 1


def test_scan_count_small_for_tail_insert():
    q = OfoQueue()
    for i in range(40):
        q.insert(pkt(i * MSS, ce=bool(i % 2)))
    result = q.insert(pkt(50 * MSS))
    assert result.scanned <= 1


def test_default_max_payload_none_allows_large_nodes():
    q = OfoQueue()
    for i in range(60):
        q.insert(pkt(i * MSS))
    assert q.nodes[0].payload_len == 60 * MSS
    assert q.nodes[0].payload_len > MAX_GRO_SEGMENT
