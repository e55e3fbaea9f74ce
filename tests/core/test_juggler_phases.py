"""The five-phase flow lifecycle (Table 1 / Figure 5)."""

from tests.core.helpers import JugglerHarness, pkt

from repro.core.config import JugglerConfig
from repro.core.flush import FlushReason
from repro.core.phases import Phase
from repro.net.constants import MSS
from repro.sim.time import US


def test_first_packet_creates_entry_in_buildup(harness):
    harness.receive(pkt(0))
    entry = harness.entry()
    assert entry is not None
    assert entry.phase is Phase.BUILD_UP
    assert harness.engine.active_list_len == 1


def test_buildup_learns_seq_next_backwards(harness):
    harness.receive(pkt(3 * MSS))
    harness.receive(pkt(MSS))
    assert harness.entry().seq_next == MSS


def test_first_flush_moves_to_active_merge(harness):
    harness.receive(pkt(0))
    harness.engine.check_timeouts(now=20 * US)  # inseq timeout fires
    entry = harness.entry()
    # Queue drained by the flush, so the flow immediately parks inactive.
    assert entry.phase is Phase.POST_MERGE
    assert harness.reasons() == [FlushReason.INSEQ_TIMEOUT]


def test_active_merge_while_ooo_queue_nonempty(harness):
    harness.receive(pkt(0))
    harness.receive(pkt(2 * MSS))  # hole at MSS
    harness.engine.check_timeouts(now=20 * US)  # flush the in-seq head
    entry = harness.entry()
    assert entry.phase is Phase.ACTIVE_MERGE
    assert len(entry.ofo) == 1


def test_post_merge_flow_parks_on_inactive_list(harness):
    harness.receive(pkt(0))
    harness.engine.check_timeouts(now=20 * US)
    assert harness.engine.table.inactive_len == 1
    assert harness.engine.active_list_len == 0


def test_post_merge_reenters_active_on_new_data(harness):
    harness.receive(pkt(0))
    harness.engine.check_timeouts(now=20 * US)
    harness.receive(pkt(MSS), now=30 * US)
    assert harness.entry().phase is Phase.ACTIVE_MERGE
    assert harness.engine.active_list_len == 1


def test_ofo_timeout_enters_loss_recovery(harness):
    harness.receive(pkt(0))
    harness.engine.check_timeouts(now=20 * US)  # flush [0, MSS)
    harness.receive(pkt(2 * MSS), now=25 * US)  # hole at MSS
    harness.engine.check_timeouts(now=80 * US)  # ofo_timeout (50us) expires
    entry = harness.entry()
    assert entry.phase is Phase.LOSS_RECOVERY
    assert entry.lost_seq == MSS
    assert harness.engine.loss_recovery_list_len == 1


def test_loss_recovery_exits_when_hole_filled(harness):
    harness.receive(pkt(0))
    harness.engine.check_timeouts(now=20 * US)
    harness.receive(pkt(2 * MSS), now=25 * US)
    harness.engine.check_timeouts(now=80 * US)
    # The retransmission of the presumed-lost packet arrives.
    harness.receive(pkt(MSS), now=90 * US)
    entry = harness.entry()
    assert entry.lost_seq is None
    assert entry.phase is Phase.POST_MERGE  # queue empty after exit
    assert harness.engine.loss_recovery_list_len == 0


def test_loss_recovery_buffers_new_data(harness):
    """Figure 7: packets beyond seq_next buffer normally in loss recovery."""
    harness.receive(pkt(0))
    harness.engine.check_timeouts(now=20 * US)
    harness.receive(pkt(2 * MSS), now=25 * US)
    harness.engine.check_timeouts(now=80 * US)  # seq_next advanced to 3*MSS
    harness.receive(pkt(4 * MSS), now=85 * US)  # buffered, still loss recovery
    entry = harness.entry()
    assert entry.phase is Phase.LOSS_RECOVERY
    assert len(entry.ofo) == 1


def test_loss_recovery_does_not_require_all_holes(harness):
    """Figure 7's closing remark: only the *first* lost packet is tracked."""
    harness.receive(pkt(0))
    harness.engine.check_timeouts(now=20 * US)
    harness.receive(pkt(2 * MSS), now=25 * US)
    harness.receive(pkt(5 * MSS), now=26 * US)  # two holes: MSS and 3..5
    harness.engine.check_timeouts(now=80 * US)
    entry = harness.entry()
    assert entry.lost_seq == MSS
    harness.receive(pkt(MSS), now=90 * US)  # fills only the first hole
    assert entry.phase is not Phase.LOSS_RECOVERY


def test_buildup_disabled_pins_seq_next(config):
    cfg = JugglerConfig(inseq_timeout=config.inseq_timeout,
                        ofo_timeout=config.ofo_timeout,
                        table_capacity=config.table_capacity,
                        enable_buildup=False)
    harness = JugglerHarness(cfg)
    harness.receive(pkt(3 * MSS))
    entry = harness.entry()
    assert entry.phase is Phase.ACTIVE_MERGE
    assert entry.seq_next == 3 * MSS
    # An "earlier" packet now counts as a retransmission and flushes alone.
    harness.receive(pkt(0))
    assert FlushReason.RETRANSMISSION in harness.reasons()
