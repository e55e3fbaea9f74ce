"""A packet-hop's budget of Python-level calls — a count, not a timing.

Packets cross ``Host.transmit`` -> access link -> ``Switch`` -> downlink ->
``Host.receive`` -> RX ring under ``sys.setprofile``, which sees every call
of a Python function (builtins and C methods are free).  Only code under
``repro/`` is counted, and only the *marginal* cost of a packet: the run is
made with N and with 2N packets and the difference divided by N, so one-off
costs (``run_until``, arming the coalescing timer) cancel exactly.

Per link hop, idle link — before (9 calls; ``Switch.receive`` is
``QueuedLink.receive`` on the access link):

    Switch.receive -> enqueue -> _transmit_next -> post -> _schedule_event
    _tx_done -> post -> _schedule_event, _tx_done -> _transmit_next (empty)

busy link — before (8): the same minus the last, the first ``_transmit_next``
being the previous packet's.  Now (5 either way):

    Switch.receive -> enqueue -> post           (busy: the post of the next
    _tx_done -> post                             completion is in _tx_done)

Per ingress packet, ring already holding one — before (7):

    Host.receive -> Nic.receive -> queue_index -> RxQueue.enqueue
    -> Engine.now, -> _kick -> Timer.armed

then (4): the first line.  Now under stateless RSS, which steers a flow to
``_rss % n``: on one queue (2) ``Host.receive -> RxQueue.enqueue``, the NIC's
``receive`` being the ring's ``enqueue``; on four (3) ``Host.receive ->
Nic.receive -> RxQueue.enqueue``, the closure indexing the rings directly.

Per forward at the switch itself, a busy egress link — before, then now:

    ToR -> host, detector    4  Switch.receive -> Packet.end_seq, observe,
      attached, in order          QueuedLink.enqueue
                             3  Switch.receive -> observe, enqueue
    the same, reordered      9  the four, observe -> _sketch_add ->
      (flow already heavy)        sketch_width, _mix x2, _report_heavy
                             3  the same three: the flow's hashes are mixed
                                once per detector, the sketch and the heavy
                                refresh are inline
    spine-bound spray        5  Switch.receive -> choose -> randrange ->
                                _randbelow (stdlib), enqueue
                             3  Switch.receive -> choose, enqueue

besides ``FiveTuple.__hash__`` (1 in order, 3 reordered: the memo probe and
the heavy store's).  The budgets below are exact.
"""

import random

import pytest

from repro.core import StandardGRO
from repro.fabric import (Host, PerPacketRouting, QueuedLink, ReorderDetector,
                          Switch)
from repro.net import FiveTuple, MSS, Packet
from repro.nic.nic import NicConfig
from repro.perf.counts import marginal_calls
from repro.sim import Engine, MS

FLOW = FiveTuple(0, 1, 1000, 80)
#: Files whose calls are a hop's (links, switch, the ``post`` under them) and
#: an ingress packet's (host demux, NIC, steering, ring, its timer).
HOP_FILES = {"fabric/link.py", "fabric/switch.py", "sim/engine.py"}
INGRESS_FILES = {"nic/nic.py", "steer/policy.py", "nic/rxqueue.py",
                 "sim/timer.py"}
LINK_HOPS = 2


def rig(packets: int, gap_ns: int, downlink_gbps: float, queues: int = 1):
    """The run that takes ``packets`` packets, ``gap_ns`` apart, across the
    two-hop path into a ``queues``-queue NIC (built here, outside the
    count)."""
    engine = Engine()
    # No poll inside the run: every packet lands in a ring that stays armed.
    receiver = Host(engine, 1, lambda deliver: StandardGRO(deliver),
                    nic_config=NicConfig(num_queues=queues,
                                         coalesce_ns=10 * MS))
    switch = Switch()
    switch.add_route(1, QueuedLink(engine, downlink_gbps, receiver))
    sender = Host(engine, 0, lambda deliver: StandardGRO(deliver))
    sender.attach_tx(QueuedLink(engine, 10.0, switch))
    for i in range(packets):
        engine.post_at(i * gap_ns, sender.transmit, Packet(FLOW, i * MSS, MSS))

    def run():
        engine.run_until(5 * MS)
        assert sum(q.backlog for q in receiver.nic.queues) == packets

    return run


def per_packet_calls(gap_ns, downlink_gbps, queues=1):
    """(hop calls, ingress calls, every call) per packet, by file."""
    n = 40
    marginal = marginal_calls(rig(n, gap_ns, downlink_gbps, queues),
                              rig(2 * n, gap_ns, downlink_gbps, queues))
    assert all(count % n == 0 for count in marginal.values()), marginal
    per_packet = {key: count // n for key, count in marginal.items()}

    def total(files):
        return sum(count for (filename, _), count in per_packet.items()
                   if filename in files)

    hops = total(HOP_FILES)
    ingress = (total(INGRESS_FILES)
               + per_packet.get(("fabric/host.py", "receive"), 0))
    # Nothing else runs per packet but the sender's Host.transmit.
    assert sum(per_packet.values()) == hops + ingress + 1, per_packet
    return hops, ingress, per_packet


@pytest.mark.parametrize("gap_ns, downlink_gbps", [
    pytest.param(3000, 10.0, id="idle-links"),   # gap > serialisation time
    pytest.param(0, 5.0, id="busy-links"),       # one burst, slower downlink
])
def test_marginal_calls_per_packet(gap_ns, downlink_gbps):
    hops, ingress, per_packet = per_packet_calls(gap_ns, downlink_gbps)
    assert hops <= 5 * LINK_HOPS, per_packet
    # One queue under RSS: the wire hands the packet straight to the ring.
    assert ingress == 2, per_packet
    assert per_packet[("fabric/host.py", "receive")] == 1, per_packet
    assert per_packet[("nic/rxqueue.py", "enqueue")] == 1, per_packet


def test_marginal_calls_per_ingress_packet_on_four_queues():
    _, ingress, per_packet = per_packet_calls(3000, 10.0, queues=4)
    # Host.receive -> Nic.receive -> RxQueue.enqueue: RSS indexes the rings.
    assert ingress == 3, per_packet
    assert per_packet[("nic/nic.py", "receive")] == 1, per_packet
    assert not [key for key in per_packet if key[0].startswith("steer/")]


class Discard:
    def receive(self, packet):
        pass


def forwards(switch, packets):
    """The run that hands ``packets`` to ``switch`` (its egress links stay
    busy: the engine never runs)."""
    return lambda: [switch.receive(packet) for packet in packets]


def tor_rig(reordered: bool):
    """A ToR with a detector, forwarding one flow to its host; the flow is
    already tracked and already a heavy reorderer."""
    def rig(packets: int):
        switch = Switch()
        switch.add_route(1, QueuedLink(Engine(), 10.0, Discard()))
        detector = ReorderDetector()
        switch.detector = detector
        top = 64 * MSS
        for k in range(64):  # warm-up, highest sequence first
            switch.receive(Packet(FLOW, top - k * MSS, MSS))
        assert detector.heavy_reorderers() == {FLOW}
        seqs = ([k % 32 * MSS for k in range(packets)] if reordered
                else [top + k * MSS for k in range(1, packets + 1)])
        return forwards(switch, [Packet(FLOW, seq, MSS) for seq in seqs])
    return rig


@pytest.mark.parametrize("reordered", [False, True],
                         ids=["in-order", "reordered"])
def test_marginal_calls_per_tor_forward_through_a_detector(reordered):
    n = 40
    rig = tor_rig(reordered)
    marginal = marginal_calls(rig(n), rig(2 * n))
    assert marginal == {
        ("fabric/switch.py", "receive"): n,
        ("fabric/detector.py", "observe"): n,
        ("fabric/link.py", "enqueue"): n,
        # The memo probe; a reordered packet also refreshes its heavy entry.
        ("net/addr.py", "__hash__"): 3 * n if reordered else n,
    }, marginal


def spray_rig(packets: int):
    """A switch spraying host-bound-elsewhere packets over three uplinks."""
    switch = Switch(policy=PerPacketRouting(random.Random(1)))
    for _ in range(3):
        switch.add_uplink(QueuedLink(Engine(), 10.0, Discard()))
    flow = FiveTuple(0, 9, 1000, 80)
    return forwards(switch, [Packet(flow, k * MSS, MSS)
                             for k in range(packets)])


def test_marginal_calls_per_spray_forward():
    n = 40
    marginal = marginal_calls(spray_rig(n), spray_rig(2 * n), everywhere=True)
    assert marginal == {
        ("fabric/switch.py", "receive"): n,
        ("fabric/routing.py", "choose"): n,
        ("fabric/link.py", "enqueue"): n,
    }, marginal
