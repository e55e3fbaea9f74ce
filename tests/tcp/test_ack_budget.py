"""An ACK's and a delivered segment's budget of Python-level calls in
``tcp/`` — counts, not timings.

Each rig runs under ``sys.setprofile`` (see ``repro.perf.counts``) with N and
with 2N operations and the difference is held per operation, so what a
connection pays once cancels.  The ceilings are on ``tcp/`` only: the policy's
calls (``cc/``) are held by ``tests/integration/test_layer_budgets.py``, the
burst's (``net/``) by ``tests/net/test_tso_budget.py``.

Per new cumulative ACK carrying one SACK block, the sender went through
``_sacked_bytes`` (twice, each summing the scoreboard in a generator),
``flight_size`` (three times), ``_pacing_rate`` and ``_usable_window`` (once
per burst it considered) and ``_rto_value``; it now reads ``_sacked_total``,
``snd_nxt - snd_una``, ``cc.cwnd``, ``peer_rwnd`` and ``pacing_gbps`` as
fields.  Per delivered single-packet segment the receiver went through
``Segment.payload_len`` (four times), ``ce_payload_bytes`` (a generator),
``contiguous``, ``_absorb_range`` and ``advertised_window``.
"""

import pytest

from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.flags import TcpFlags
from repro.net.packet import Packet
from repro.net.segment import Segment
from repro.perf.counts import marginal_calls
from repro.sim.engine import Engine
from repro.sim.time import MS
from repro.tcp.config import TcpConfig
from repro.tcp.connection import Connection
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender

from .helpers import DirectPair
from .test_range_splice import NullHost

FLOW = FiveTuple(0, 1, 1000, 80)
TOTAL = 200 * MSS


def tcp_calls(marginal):
    return sum(count for (filename, _), count in marginal.items()
               if filename.startswith("tcp/"))


def sender_rig(acks: int, pacing_gbps):
    """The run that hands a sender ``acks`` ACKs, each acknowledging one more
    MSS and repeating one SACK block (sender built here, outside the count)."""
    sender = TcpSender(Engine(), NullHost(), FLOW,
                       TcpConfig(init_cwnd=64 * MSS), pacing_gbps=pacing_gbps)
    sender.send(TOTAL)
    block = ((150 * MSS, 151 * MSS),)
    segments = [
        Segment([Packet(FLOW.reversed(), 0, 0, flags=TcpFlags.ACK,
                        ack=k * MSS, rwnd=1 << 22, sack=block)])
        for k in range(1, acks + 1)]

    def run():
        for segment in segments:
            sender.on_ack_segment(segment)
        assert sender.snd_una == acks * MSS and sender.sacked == list(block)

    return run


@pytest.mark.parametrize("pacing_gbps", [None, 1.0], ids=["unpaced", "paced"])
def test_marginal_calls_per_new_ack(pacing_gbps):
    n = 20
    marginal = marginal_calls(sender_rig(n, pacing_gbps),
                              sender_rig(2 * n, pacing_gbps))
    assert tcp_calls(marginal) <= 12 * n, marginal
    for name in ("_sacked_bytes", "flight_size", "_usable_window",
                 "_pacing_rate", "<genexpr>", "<listcomp>"):
        assert ("tcp/sender.py", name) not in marginal, marginal


def receiver_rig(segments: int):
    """The run that delivers ``segments`` in-order single-packet segments."""
    receiver = TcpReceiver(Engine(), NullHost(), FLOW, TcpConfig())
    arrivals = [Segment([Packet(FLOW, k * MSS, MSS)])
                for k in range(segments)]

    def run():
        for segment in arrivals:
            receiver.on_segment(segment)
        assert receiver.rcv_nxt == segments * MSS
        assert receiver.acks_sent == segments

    return run


def test_marginal_calls_per_delivered_segment():
    n = 20
    marginal = marginal_calls(receiver_rig(n), receiver_rig(2 * n))
    assert tcp_calls(marginal) <= 4 * n, marginal
    for key in (("net/segment.py", "contiguous"),
                ("net/segment.py", "payload_len"),
                ("tcp/receiver.py", "advertised_window")):
        assert key not in marginal, marginal


def transfer_rig(segments: int):
    """The run that moves ``segments`` MSS over a two-host pair, every ACK
    demultiplexed by the sending host (wiring built here)."""
    engine = Engine()
    pair = DirectPair(engine, gro="standard")
    conn = Connection(engine, pair.a, pair.b, 1000, 80, TcpConfig())
    conn.send(segments * MSS)

    def run():
        engine.run_until(20 * MS)
        assert conn.done and pair.a.stray_segments == 0

    return run


def test_sender_ack_demux_hits_by_identity():
    """The key a sender registers for its ACKs and the flow its receiver
    stamps on them are the same ``reversed()`` object, so the sending host's
    ``Host.deliver`` probe never falls through to ``FiveTuple.__eq__``."""
    marginal = marginal_calls(transfer_rig(100), transfer_rig(200))
    assert marginal[("tcp/sender.py", "on_ack_segment")] >= 10, marginal
    assert ("net/addr.py", "__eq__") not in marginal, marginal
