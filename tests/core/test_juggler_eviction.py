"""Flow eviction under table pressure (§4.3, Figure 8)."""

from tests.core.helpers import JugglerHarness, pkt

from repro.core.config import JugglerConfig
from repro.core.flush import FlushReason
from repro.core.phases import Phase
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.sim.time import US


def tiny_table(capacity=2, policy="inactive_first"):
    return JugglerHarness(JugglerConfig(
        inseq_timeout=15 * US, ofo_timeout=50 * US,
        table_capacity=capacity, eviction_policy=policy))


def flow(i):
    return FiveTuple(10 + i, 2, 1000 + i, 80)


def test_eviction_triggered_when_full():
    harness = tiny_table(capacity=2)
    harness.receive(pkt(0, flow=flow(0)))
    harness.receive(pkt(0, flow=flow(1)))
    assert harness.engine.table.full
    harness.receive(pkt(0, flow=flow(2)))
    assert len(harness.engine.table) == 2
    assert harness.engine.stats.total_evictions == 1


def test_eviction_flushes_victims_packets():
    harness = tiny_table(capacity=1)
    harness.receive(pkt(0, flow=flow(0)))
    harness.receive(pkt(2 * MSS, flow=flow(0)))
    harness.receive(pkt(0, flow=flow(1)))  # forces eviction of flow 0
    evicted = [(s, r) for s, r, _ in harness.log
               if r is FlushReason.EVICTION]
    assert [(s.seq, s.end_seq) for s, _ in evicted] == [
        (0, MSS), (2 * MSS, 3 * MSS)]


def test_inactive_evicted_before_active():
    harness = tiny_table(capacity=2)
    # Flow 0 -> post merge (inactive).
    harness.receive(pkt(0, flow=flow(0)))
    harness.engine.check_timeouts(now=20 * US)
    # Flow 1 active with buffered data.
    harness.receive(pkt(0, flow=flow(1)), now=21 * US)
    # Flow 2 arrives: flow 0 (inactive) must be the victim.
    harness.receive(pkt(0, flow=flow(2)), now=22 * US)
    assert harness.engine.table.lookup(flow(0)) is None
    assert harness.engine.table.lookup(flow(1)) is not None
    assert harness.engine.stats.evictions[Phase.POST_MERGE] == 1


def test_loss_recovery_protected_from_eviction():
    harness = tiny_table(capacity=2)
    # Flow 0 into loss recovery.
    harness.receive(pkt(0, flow=flow(0)))
    harness.engine.check_timeouts(now=20 * US)
    harness.receive(pkt(2 * MSS, flow=flow(0)), now=25 * US)
    harness.engine.check_timeouts(now=80 * US)
    assert harness.engine.loss_recovery_list_len == 1
    # Flow 1 active.
    harness.receive(pkt(0, flow=flow(1)), now=85 * US)
    # Flow 2 arrives: the active flow is evicted, not the loss-recovery one.
    harness.receive(pkt(0, flow=flow(2)), now=86 * US)
    assert harness.engine.table.lookup(flow(0)) is not None
    assert harness.engine.table.lookup(flow(1)) is None


def test_loss_recovery_evicted_as_last_resort():
    harness = tiny_table(capacity=1)
    harness.receive(pkt(0, flow=flow(0)))
    harness.engine.check_timeouts(now=20 * US)
    harness.receive(pkt(2 * MSS, flow=flow(0)), now=25 * US)
    harness.engine.check_timeouts(now=80 * US)  # loss recovery, table full
    harness.receive(pkt(0, flow=flow(1)), now=85 * US)
    assert harness.engine.table.lookup(flow(0)) is None
    assert harness.engine.stats.evictions[Phase.LOSS_RECOVERY] == 1


def test_evicted_flow_reenters_via_buildup():
    harness = tiny_table(capacity=1)
    harness.receive(pkt(0, flow=flow(0)))
    harness.receive(pkt(0, flow=flow(1)))  # evicts flow 0
    harness.receive(pkt(MSS, flow=flow(0)))  # flow 0 re-enters (evicts 1)
    entry = harness.engine.table.lookup(flow(0))
    assert entry.phase is Phase.BUILD_UP
    assert entry.seq_next == MSS


def test_active_first_policy_evicts_flows_with_holes():
    harness = tiny_table(capacity=2, policy="active_first")
    harness.receive(pkt(0, flow=flow(0)))
    harness.engine.check_timeouts(now=20 * US)  # flow 0 inactive
    harness.receive(pkt(0, flow=flow(1)), now=21 * US)  # flow 1 active
    harness.receive(pkt(0, flow=flow(2)), now=22 * US)
    # Adversarial order: active flow evicted even though inactive existed.
    assert harness.engine.table.lookup(flow(1)) is None
    assert harness.engine.table.lookup(flow(0)) is not None


def test_stats_count_evictions_by_phase():
    harness = tiny_table(capacity=1)
    harness.receive(pkt(0, flow=flow(0)))
    harness.receive(pkt(0, flow=flow(1)))
    assert harness.engine.stats.evictions[Phase.BUILD_UP] == 1
