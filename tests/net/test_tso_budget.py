"""A burst packet's budget of Python-level calls — a count, not a timing.

One ``TcpSender`` on a real ``Host`` cuts one burst into an idle
``QueuedLink`` under ``sys.setprofile`` (see ``repro.perf.counts``); the run
is made with an N-packet and a 2N-packet burst and the difference divided by
N, so what a burst pays once — ``send``, ``_emit_burst``, the head packet's
constructor, arming the RTO, the link's first ``post`` — cancels exactly.

Per further full-MSS packet — before (5 calls):

    Packet.__init__ -> wire_bytes
    Host.transmit -> QueuedLink.receive -> QueuedLink.enqueue

now (3): the second line.  The packet itself is stamped from the burst's head
inside the one ``Packet.burst`` call the burst makes.
"""

from repro.core import StandardGRO
from repro.fabric import Host, QueuedLink
from repro.net import FiveTuple, MSS
from repro.net.constants import MAX_TSO_PAYLOAD, wire_bytes
from repro.perf.counts import marginal_calls
from repro.sim import Engine
from repro.tcp import TcpConfig, TcpSender

FLOW = FiveTuple(0, 1, 1000, 80)
WIRE = [("fabric/host.py", "transmit"), ("fabric/link.py", "receive"),
        ("fabric/link.py", "enqueue")]


class Sink:
    def receive(self, packet):  # never reached: the engine does not run
        raise AssertionError(packet)


def rig(packets: int):
    """The run that sends one ``packets``-packet burst (built here, outside
    the count)."""
    engine = Engine()
    host = Host(engine, 0, lambda deliver: StandardGRO(deliver))
    link = QueuedLink(engine, 10.0, Sink())
    host.attach_tx(link)
    sender = TcpSender(engine, host, FLOW,
                       TcpConfig(init_cwnd=MAX_TSO_PAYLOAD))
    # The first packet goes on the wire, the rest wait behind it.
    waiting = (packets - 1) * wire_bytes(MSS)

    def run():
        sender.send(packets * MSS)
        assert sender.bursts_sent == 1 and sender.packets_sent == packets
        assert link.queued_bytes == waiting

    return run


def test_marginal_calls_per_burst_packet():
    n = 20
    rig(1)()  # fills the process-wide serialisation-time memo of the link
    marginal = marginal_calls(rig(n), rig(2 * n))
    assert all(count % n == 0 for count in marginal.values()), marginal
    per_packet = {key: count // n for key, count in marginal.items()}
    assert ("net/packet.py", "__init__") not in per_packet, per_packet
    assert ("net/constants.py", "wire_bytes") not in per_packet, per_packet
    net = sum(count for (filename, _), count in per_packet.items()
              if filename.startswith("net/"))
    assert net <= 1, per_packet
    assert [per_packet.get(key) for key in WIRE] == [1, 1, 1], per_packet
    # Nothing else runs per packet: no priority_fn is set.
    assert sum(per_packet.values()) == len(WIRE) + net, per_packet
