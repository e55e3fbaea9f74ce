"""Property tests for the flowcut in-order guarantee.

The load-bearing claim of the fabric-side answer to Juggler: flowcut
switching is adaptive like flowlet switching but *provably* in-order —
zero out-of-order segments at every receiver, under any seed — while
per-packet spraying over the identical fabric and the identical seed does
reorder.  Run under ``JUGGLER_SANITIZE=1`` in CI so the sanitizers watch
every run.
"""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.standard_gro import StandardGRO
from repro.fabric.flowcut import FlowcutRouting
from repro.fabric.routing import PerPacketRouting
from repro.fabric.topology import build_clos
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet
from repro.sim.engine import Engine
from repro.sim.time import MS
from repro.tcp.config import TcpConfig
from repro.tcp.connection import Connection


def _run_clos(policy_factory, *, pacing_gbps=2.0, volume=1 << 21):
    """Two cross-ToR TCP flows on a drop-free Clos; per-flow end state.

    Queues are uncapped (the build_clos default) so no retransmissions can
    occur: any receiver-side OOO is then pure path-skew reordering, which
    makes the zero-OOO assertion exact rather than statistical.
    """
    engine = Engine()
    net = build_clos(engine, lambda d: StandardGRO(d), policy_factory,
                     n_tors=2, hosts_per_tor=2, n_spines=2)
    conns = [Connection(engine, net.hosts[i], net.hosts[2 + i], 1000, 80,
                        TcpConfig(), pacing_gbps=pacing_gbps)
             for i in range(2)]
    for conn in conns:
        conn.send(volume)
    engine.run_until(30 * MS)
    return net, conns


@given(st.integers(0, 10_000))
@settings(max_examples=12, deadline=None)
def test_flowcut_never_delivers_out_of_order(seed):
    net, conns = _run_clos(lambda: FlowcutRouting(random.Random(seed)))
    for conn in conns:
        # Drop-free fabric: zero retransmits, so OOO would be fabric
        # reordering — and there is none.
        assert conn.sender.retransmitted_packets == 0
        assert conn.receiver.ooo_segments == 0
        assert conn.delivered_bytes == 1 << 21
    # The guarantee is not vacuous: the policies actually routed packets
    # and saw their exits at the reconvergence taps.
    for tor in net.tors:
        if tor.policy.stats.pins:
            assert tor.policy.stats.exits > 0


@given(st.integers(0, 10_000))
@settings(max_examples=8, deadline=None)
def test_per_packet_reorders_where_flowcut_does_not(seed):
    """Same fabric, same seed, same workload: spraying reorders."""
    _, flowcut_conns = _run_clos(
        lambda: FlowcutRouting(random.Random(seed)))
    _, spray_conns = _run_clos(
        lambda: PerPacketRouting(random.Random(seed)))
    assert sum(c.receiver.ooo_segments for c in flowcut_conns) == 0
    assert sum(c.receiver.ooo_segments for c in spray_conns) > 0
    for conn in spray_conns:  # reordered, not lossy — and still complete
        assert conn.delivered_bytes == 1 << 21


# -- policy-level invariants, no fabric ---------------------------------------


@given(st.lists(st.tuples(st.integers(0, 5), st.booleans()),
                min_size=1, max_size=200),
       st.integers(0, 100))
@settings(max_examples=100, deadline=None)
def test_inflight_counters_never_go_negative(events, seed):
    """Any interleaving of routes and (possibly spurious) exits keeps
    every flow's in-flight count non-negative, and a live flowcut never
    changes port."""
    policy = FlowcutRouting(random.Random(seed), table_capacity=4)
    policy.track_inflight()
    flows = [FiveTuple(i, 99, 1000 + i, 80) for i in range(6)]
    pinned = {}
    now = 0
    for i, (which, is_exit) in enumerate(events):
        flow = flows[which]
        now += 1000 * (i % 3)
        policy.observe(now)
        if is_exit:
            policy.packet_exited(flow)  # may be spurious: still safe
        else:
            inflight_before = policy.inflight_of(flow)
            port = policy.choose(Packet(flow, i * MSS, MSS), 4)
            if flow in pinned and inflight_before > 0:
                assert port == pinned[flow], "moved while live"
            pinned[flow] = port
        for f in flows:
            assert policy.inflight_of(f) >= 0
    assert policy.active <= 4


@given(st.integers(0, 2 ** 32))
@settings(max_examples=50, deadline=None)
def test_overflow_fallback_is_stable_per_flow(seed):
    """With the table full of live flowcuts, the hash fallback must keep
    giving a flow the same port — per-flow order is preserved even in
    overflow."""
    policy = FlowcutRouting(random.Random(0), table_capacity=1)
    policy.track_inflight()
    policy.observe(0)
    policy.choose(Packet(FiveTuple(1, 2, 3, 4), 0, MSS), 4)  # fills table
    flow = FiveTuple(seed % 1000, 99, seed % 65535, 80)
    ports = {policy.choose(Packet(flow, i * MSS, MSS), 4) for i in range(8)}
    assert len(ports) == 1
