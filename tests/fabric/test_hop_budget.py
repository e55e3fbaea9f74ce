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

then (4): the first line.  Now, on a one-queue NIC under RSS, whose every
flow steers to ``_rss % 1 == 0`` (2): ``Host.receive -> RxQueue.enqueue``,
the NIC's ``receive`` being the ring's ``enqueue``; on four queues still 4.
The budgets below are exact.
"""

import pytest

from repro.core import StandardGRO
from repro.fabric import Host, QueuedLink, Switch
from repro.net import FiveTuple, MSS, Packet
from repro.nic.nic import NicConfig
from repro.sim import Engine, MS

from ..callcount import marginal_calls

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
    # Host.receive -> Nic.receive -> queue_index -> RxQueue.enqueue
    assert ingress == 4, per_packet
    assert per_packet[("steer/policy.py", "queue_index")] == 1, per_packet
