"""Property tests: shard privacy under Flow Director migration, with JSAN.

The §4 invariant the steering layer must never break *structurally*: each
core's GRO shard holds only flows the policy actually steered to it.  Flow
Director migrations make a flow's *stream* straddle two shards in time —
that is the measured pathology — but a shard must never end up holding
state for a flow that was never steered its way, and the per-shard
lifecycle invariants (Table 1 / Figure 5, §4.3 eviction order) must hold
on every shard throughout, which JSAN enforces packet-by-packet.
"""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis.runtime import sanitizing
from repro.core.config import JugglerConfig
from repro.core.juggler import JugglerGRO
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet
from repro.sim.time import US
from repro.steer.flow_director import FlowDirectorConfig, FlowDirectorSteering


def make_shards(n_queues):
    """Per-queue JugglerGRO instances, each shadowed by the spec (JSAN)."""
    config = JugglerConfig(inseq_timeout=50 * US, ofo_timeout=200 * US,
                           table_capacity=16)
    with sanitizing() as sanitizer:
        shards = [JugglerGRO(lambda segment: None, config)
                  for _ in range(n_queues)]
    return shards, sanitizer


@st.composite
def steering_runs(draw):
    """(n_queues, flow count, packet schedule, rebalance points)."""
    n_queues = draw(st.integers(min_value=2, max_value=6))
    n_flows = draw(st.integers(min_value=2, max_value=12))
    n_packets = draw(st.integers(min_value=20, max_value=120))
    schedule = draw(st.lists(
        st.integers(min_value=0, max_value=n_flows - 1),
        min_size=n_packets, max_size=n_packets))
    rebalances = draw(st.sets(
        st.integers(min_value=0, max_value=n_packets - 1), max_size=6))
    flush = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    return n_queues, n_flows, schedule, sorted(rebalances), flush, seed


@given(steering_runs())
@settings(max_examples=60, deadline=None)
def test_no_shard_holds_a_flow_it_was_never_steered(case):
    n_queues, n_flows, schedule, rebalances, flush, seed = case
    policy = FlowDirectorSteering(
        FlowDirectorConfig(sample_rate=3, groups=8, table_size=32),
        rng=random.Random(seed))
    policy.bind(n_queues)
    shards, sanitizer = make_shards(n_queues)
    flows = [FiveTuple(1, 2, 5000 + i, 80) for i in range(n_flows)]
    seq_next = [0] * n_flows
    steered_to = [set() for _ in range(n_queues)]  # shard -> flows sent there

    now = 0
    rebalance_points = set(rebalances)
    for step, flow_idx in enumerate(schedule):
        flow = flows[flow_idx]
        queue = policy.queue_index(flow)
        assert 0 <= queue < n_queues
        steered_to[queue].add(flow)
        now += 2 * US
        shards[queue].receive(Packet(flow, seq_next[flow_idx], MSS), now)
        seq_next[flow_idx] += MSS
        if step in rebalance_points:
            policy.rebalance(0.5, flush_table=flush)

    # Shard privacy: a shard's gro_table keys are a subset of the flows
    # the policy ever steered to that shard — state never leaks sideways.
    for queue, gro in enumerate(shards):
        resident = {entry.key for entry in gro.table}
        assert resident <= steered_to[queue], (
            f"shard {queue} holds flows it was never steered: "
            f"{resident - steered_to[queue]}")

    # After migrations settle (the flow's packets all land on its current
    # queue), the flow's *live* state converges onto one shard: flush every
    # shard and re-drive one packet per flow — exactly one shard may then
    # hold it, and it must be the policy's current answer.
    now += 1000 * US
    for gro in shards:
        gro.flush_all(now)
        assert len(gro.table) == 0
    for i, flow in enumerate(flows):
        queue = policy.current_queue(flow)
        now += 2 * US
        shards[queue].receive(Packet(flow, seq_next[i], MSS), now)
    for queue, gro in enumerate(shards):
        for entry in gro.table:
            assert policy.current_queue(entry.key) == queue

    # JSAN ran on every shard and found nothing (it raises at violation).
    assert sanitizer.checks_run > 0


@given(steering_runs())
@settings(max_examples=30, deadline=None)
def test_steering_decisions_replay_byte_identically(case):
    n_queues, n_flows, schedule, rebalances, flush, seed = case
    flows = [FiveTuple(1, 2, 5000 + i, 80) for i in range(n_flows)]

    def run():
        policy = FlowDirectorSteering(
            FlowDirectorConfig(sample_rate=3, groups=8, table_size=32),
            rng=random.Random(seed))
        policy.bind(n_queues)
        decisions = []
        points = set(rebalances)
        for step, flow_idx in enumerate(schedule):
            decisions.append(policy.queue_index(flows[flow_idx]))
            if step in points:
                policy.rebalance(0.5, flush_table=flush)
        return decisions, policy.counters()

    assert run() == run()


def test_coreset_reconcile_is_idempotent_and_per_queue():
    """Drain-time reconciliation of the Nic's per-core queues, per queue."""
    from repro.nic.nic import RECONCILED_FIELDS, Nic, NicConfig
    from repro.sim.engine import Engine
    from repro.trace import runtime
    from repro.trace.sinks import CallbackSink
    from repro.trace.tracer import Tracer

    tracer = Tracer([CallbackSink(lambda event: None)])
    with runtime.tracing(tracer):
        nic = Nic(Engine(), lambda segment: None,
                  lambda deliver: JugglerGRO(deliver, JugglerConfig()),
                  NicConfig(num_queues=3, coalesce_ns=100 * US,
                            coalesce_frames=0))
    for queue in nic.queues:
        queue.ring_size = 2
    flow = FiveTuple(1, 2, 5000, 80)
    target = nic.queues[1]
    for i in range(5):  # ring_size 2 -> 3 drops on queue 1 only
        target.enqueue(Packet(flow, i * MSS, MSS))
    assert nic.dropped == 3
    assert nic.imbalance() == 1.0  # nothing delivered yet
    nic.drain()
    snap = tracer.metrics.snapshot()
    assert snap["nic.rxq1.dropped"] == 3
    assert snap["nic.rxq0.dropped"] == 0
    assert snap["nic.rxq2.dropped"] == 0
    assert snap["nic.rxq1.delivered"] == 2
    nic.drain()  # idempotent
    assert tracer.metrics.snapshot() == snap
    assert {f"nic.rxq{j}.{field}" for j in range(3)
            for field in RECONCILED_FIELDS} <= set(snap)
    assert nic.imbalance() == 3.0  # everything on one of three queues
