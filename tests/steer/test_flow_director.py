"""Flow Director: sampled installs, bounded table, migration, trace events."""

import random

import pytest

from repro.net.addr import FiveTuple
from repro.sim.engine import Engine
from repro.steer.flow_director import FlowDirectorConfig, FlowDirectorSteering
from repro.trace.events import EventKind
from repro.trace.sinks import CallbackSink
from repro.trace.tracer import Tracer


def flows(n, base=5000):
    return [FiveTuple(1 + (i % 16), 99, base + i, 80) for i in range(n)]


def make(n_queues=4, **config):
    policy = FlowDirectorSteering(FlowDirectorConfig(**config),
                                  rng=random.Random(7))
    policy.bind(n_queues)
    return policy


# -- config validation --------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        FlowDirectorConfig(table_size=0)
    with pytest.raises(ValueError):
        FlowDirectorConfig(sample_rate=0)
    with pytest.raises(ValueError):
        FlowDirectorConfig(groups=0)
    with pytest.raises(ValueError):
        make().rebalance(1.5)


# -- sampling and installs ----------------------------------------------------


def test_rules_install_only_on_sampled_packets():
    policy = make(sample_rate=10)
    flow = flows(1)[0]
    for _ in range(9):
        policy.queue_index(flow)
    assert policy.rule_count == 0  # below the sampling tick
    policy.queue_index(flow)
    assert policy.rule_count == 1
    assert policy.installs == 1


def test_unmatched_flows_use_rss_fallback():
    policy = make(sample_rate=1_000_000)  # never samples
    for flow in flows(32):
        assert policy.queue_index(flow) == flow.rss_hash() % 4
    assert policy.misses == 32 and policy.hits == 0


# -- bounded table ------------------------------------------------------------


def test_signature_table_is_bounded_and_overwrites():
    policy = make(sample_rate=1, table_size=16)
    for flow in flows(256):
        policy.queue_index(flow)
    assert policy.rule_count <= 16
    assert policy.rule_evictions > 0


# -- migration on rebalance ---------------------------------------------------


def test_rebalance_migrates_rules_at_next_sample():
    policy = make(sample_rate=1, groups=8)
    fs = flows(64)
    for flow in fs:  # install everyone at their affinity home
        policy.queue_index(flow)
    before = {flow: policy.current_queue(flow) for flow in fs}
    moved = policy.rebalance(1.0)
    assert moved == 8 and policy.rebalances == 1
    # Rules are stale until each flow's next sampled packet re-installs.
    assert {flow: policy.current_queue(flow) for flow in fs} == before
    for flow in fs:
        policy.queue_index(flow)
    after = {flow: policy.current_queue(flow) for flow in fs}
    changed = [flow for flow in fs if after[flow] != before[flow]]
    assert changed, "a full re-salt should move some flows"
    # Every changed flow either migrated its rule or (rarely) lost it to a
    # signature collision and re-installed fresh at the new home.
    assert policy.migrations + policy.rule_evictions >= len(changed)
    assert policy.migrations > 0


def test_partial_rebalance_moves_a_fraction_of_groups():
    policy = make(groups=64)
    assert policy.rebalance(0.25) == 16
    assert policy.rebalance(0.0) == 0
    assert policy.groups_moved == 16


def test_flush_table_reverts_to_rss():
    policy = make(sample_rate=1)
    fs = flows(32)
    for flow in fs:
        policy.queue_index(flow)
    installed = policy.rule_count
    assert installed > 0
    policy.rebalance(0.0, flush_table=True)
    assert policy.rule_count == 0
    assert policy.table_flushes == 1 and policy.rules_flushed == installed
    for flow in fs:
        assert policy.current_queue(flow) == flow.rss_hash() % 4


def test_cross_queue_events_count_reordering_capable_handoffs():
    policy = make(sample_rate=1, groups=4)
    flow = flows(1)[0]
    for _ in range(8):
        policy.queue_index(flow)
    baseline = policy.cross_queue_events
    # Hammer rebalances until the flow's home actually moves.
    moved_somewhere = False
    for _ in range(32):
        old = policy.current_queue(flow)
        policy.rebalance(1.0)
        policy.queue_index(flow)  # sampled: re-installs toward the new home
        if policy.current_queue(flow) != old:
            moved_somewhere = True
            policy.queue_index(flow)  # lands on the new queue: handoff seen
    assert moved_somewhere
    assert policy.cross_queue_events > baseline
    assert policy.migrations > 0


# -- trace events -------------------------------------------------------------


def test_migration_and_rebalance_emit_trace_events():
    events = []
    tracer = Tracer([CallbackSink(events.append)])
    engine = Engine()
    policy = FlowDirectorSteering(FlowDirectorConfig(sample_rate=1, groups=4),
                                  rng=random.Random(7))
    policy.bind(4, engine=engine, tracer=tracer, metrics_prefix="steer0")
    fs = flows(64)
    for flow in fs:
        policy.queue_index(flow)
    for _ in range(8):
        policy.rebalance(1.0)
        for flow in fs:
            policy.queue_index(flow)
    kinds = {e.kind for e in events}
    assert EventKind.STEER_REBALANCE in kinds
    assert EventKind.STEER_MIGRATION in kinds
    migrations = [e for e in events if e.kind is EventKind.STEER_MIGRATION]
    assert len(migrations) == policy.migrations
    for event in migrations:
        assert event.old_queue != event.new_queue
        assert event.to_dict()["event"] == "steer_migration"
    # The policy gauges landed in the registry under the given prefix.
    snapshot = tracer.metrics.snapshot()
    assert snapshot["steer0.migrations"] == policy.migrations
    assert snapshot["steer0.rules"] == policy.rule_count


# -- determinism --------------------------------------------------------------


def test_same_seed_same_steering_decisions():
    def run(seed):
        policy = FlowDirectorSteering(
            FlowDirectorConfig(sample_rate=2, groups=16),
            rng=random.Random(seed))
        policy.bind(8)
        trace = []
        fs = flows(32)
        for step in range(4):
            for flow in fs:
                trace.append(policy.queue_index(flow))
            policy.rebalance(0.5)
        return trace, policy.counters()

    assert run(11) == run(11)
    assert run(11) != run(13)
