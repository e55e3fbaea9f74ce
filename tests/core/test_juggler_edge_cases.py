"""Edge cases and failure injection for the Juggler engine."""

from tests.core.helpers import FLOW, JugglerHarness, pkt

from repro.analysis.runtime import sanitizing
from repro.core.config import JugglerConfig
from repro.core.flush import FlushReason
from repro.core.phases import Phase
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.flags import TcpFlags
from repro.sim.time import MS, US


def harness_with(**kw):
    base = dict(inseq_timeout=15 * US, ofo_timeout=50 * US, table_capacity=8)
    base.update(kw)
    return JugglerHarness(JugglerConfig(**base))


def test_zero_inseq_timeout_flushes_at_every_check():
    harness = harness_with(inseq_timeout=0)
    harness.receive(pkt(0), now=0)
    harness.engine.check_timeouts(now=0)
    assert harness.reasons() == [FlushReason.INSEQ_TIMEOUT]


def test_zero_ofo_timeout_flushes_holes_immediately():
    harness = harness_with(inseq_timeout=0, ofo_timeout=0)
    harness.receive(pkt(0), now=0)
    harness.engine.check_timeouts(now=1)  # in-seq head flushed
    harness.receive(pkt(2 * MSS), now=2)  # hole at head now
    harness.engine.check_timeouts(now=2)
    assert FlushReason.OFO_TIMEOUT in harness.reasons()
    assert harness.entry().phase is Phase.LOSS_RECOVERY


def test_capacity_one_table_still_functions():
    harness = harness_with(table_capacity=1)
    flows = [FiveTuple(5, 6, 100 + i, 80) for i in range(3)]
    for i, flow in enumerate(flows * 3):
        harness.receive(pkt(i * MSS, flow=flow), now=i * US)
    harness.engine.flush_all(now=1 * MS)
    # All nine packets came out despite brutal eviction churn.
    assert sum(s.mtus for s, _, _ in harness.log) == 9


def test_interleaved_flows_do_not_cross_merge(harness=None):
    harness = harness_with()
    a = FiveTuple(1, 2, 10, 80)
    b = FiveTuple(1, 2, 11, 80)
    for i in range(4):
        harness.receive(pkt(i * MSS, flow=a), now=i)
        harness.receive(pkt(i * MSS, flow=b), now=i)
    harness.engine.flush_all(now=1 * MS)
    for segment, _, _ in harness.log:
        flows = {p.flow for p in segment.packets}
        assert len(flows) == 1


def test_syn_packet_flushes_immediately():
    harness = harness_with()
    harness.receive(pkt(0, flags=TcpFlags.SYN), now=0)
    assert harness.reasons() == [FlushReason.FLAGS]


def test_fin_ends_batch():
    harness = harness_with()
    harness.receive(pkt(0), now=0)
    harness.receive(pkt(MSS, flags=TcpFlags.ACK | TcpFlags.FIN), now=1)
    # The FIN's flags differ from the plain segment's signature, so the two
    # cannot merge: the first flushes as unmergeable, the FIN for its flags.
    assert harness.reasons() == [FlushReason.UNMERGEABLE, FlushReason.FLAGS]
    assert harness.delivered_ranges() == [(0, MSS), (MSS, 2 * MSS)]


def test_duplicate_during_buildup():
    harness = harness_with()
    harness.receive(pkt(0), now=0)
    harness.receive(pkt(0), now=1)
    assert harness.engine.stats.duplicates == 1
    assert FlushReason.DUPLICATE in harness.reasons()


def test_straddling_duplicate_during_buildup_keeps_table_1_legal():
    """A duplicate that starts below the only buffered run still lowers the
    learnt ``seq_next``, opening a hole under it; its OFO timeout ends
    build-up before loss recovery, the one legal path (JSAN checks it)."""
    with sanitizing():
        harness = harness_with()
    harness.receive(pkt(MSS + MSS // 2), now=0)
    harness.receive(pkt(MSS), now=1)       # overlaps: a duplicate
    assert harness.entry().seq_next == MSS
    harness.engine.check_timeouts(now=60 * US)
    assert harness.entry().phase is Phase.LOSS_RECOVERY
    assert harness.reasons() == [FlushReason.DUPLICATE,
                                 FlushReason.OFO_TIMEOUT]


def test_options_split_batches_but_preserve_order():
    harness = harness_with()
    harness.receive(pkt(0, options=("ts", 1)), now=0)
    harness.receive(pkt(MSS, options=("ts", 2)), now=1)
    harness.receive(pkt(2 * MSS, options=("ts", 2)), now=2)
    harness.engine.check_timeouts(now=20 * US)
    ranges = harness.delivered_ranges()
    assert ranges == sorted(ranges)
    assert len(harness.log) >= 2  # could not merge across the option change


def test_second_ofo_timeout_keeps_first_lost_seq():
    """Best-effort: only the FIRST lost packet is remembered (§4.2.5)."""
    harness = harness_with()
    harness.receive(pkt(0), now=0)
    harness.engine.check_timeouts(now=20 * US)
    harness.receive(pkt(2 * MSS), now=25 * US)
    harness.engine.check_timeouts(now=80 * US)  # lost_seq = MSS
    entry = harness.entry()
    assert entry.lost_seq == MSS
    harness.receive(pkt(5 * MSS), now=90 * US)  # new hole in loss recovery
    harness.engine.check_timeouts(now=150 * US)  # second ofo fire
    assert entry.lost_seq == MSS  # unchanged
    assert entry.phase is Phase.LOSS_RECOVERY


def test_eviction_of_loss_recovery_clears_lost_state():
    harness = harness_with(table_capacity=1)
    harness.receive(pkt(0), now=0)
    harness.engine.check_timeouts(now=20 * US)
    harness.receive(pkt(2 * MSS), now=25 * US)
    harness.engine.check_timeouts(now=80 * US)  # loss recovery
    other = FiveTuple(9, 9, 9, 80)
    harness.receive(pkt(0, flow=other), now=85 * US)  # evicts it
    assert harness.entry() is None
    # Re-entry starts a clean life.
    harness.receive(pkt(3 * MSS), now=90 * US)
    assert harness.entry().phase is Phase.BUILD_UP
    assert harness.entry().lost_seq is None


def test_stress_many_flows_tiny_table_nothing_lost():
    harness = harness_with(table_capacity=4)
    import random

    rng = random.Random(0)
    sent = set()
    flows = [FiveTuple(3, 4, 50 + i, 80) for i in range(16)]
    for i in range(400):
        flow = rng.choice(flows)
        seq = rng.randrange(0, 32) * MSS
        if (flow, seq) in sent:
            continue
        sent.add((flow, seq))
        harness.receive(pkt(seq, flow=flow), now=i * US)
        if i % 16 == 0:
            harness.engine.check_timeouts(i * US)
    harness.engine.flush_all(now=1 * MS)
    delivered = {(s.flow, p.seq) for s, _, _ in harness.log
                 for p in s.packets}
    assert sent <= delivered


def test_huge_jump_in_sequence_space():
    harness = harness_with()
    harness.receive(pkt(0), now=0)
    harness.engine.check_timeouts(now=20 * US)
    harness.receive(pkt(10_000_000 * MSS), now=25 * US)  # giant gap
    harness.engine.check_timeouts(now=80 * US)
    assert harness.entry().phase is Phase.LOSS_RECOVERY
    assert harness.entry().seq_next == 10_000_001 * MSS


def test_next_deadline_ignores_post_merge_flows():
    harness = harness_with()
    harness.receive(pkt(0), now=0)
    harness.engine.check_timeouts(now=20 * US)  # post merge
    assert harness.engine.next_deadline() is None
