"""Table 2: all six flushing conditions observed on one engine."""

from conftest import show

from repro.core.config import JugglerConfig
from repro.core.flush import FlushReason
from repro.core.juggler import JugglerGRO
from repro.net.addr import FiveTuple
from repro.net.constants import MSS, MAX_GRO_SEGMENT
from repro.net.flags import TcpFlags
from repro.net.packet import Packet
from repro.sim.time import US

FLOW = FiveTuple(1, 2, 1000, 80)


def exercise_all_conditions():
    sink = []
    gro = JugglerGRO(sink.append, JugglerConfig(inseq_timeout=15 * US,
                                                ofo_timeout=50 * US))
    now = 0
    # Establish the flow.
    gro.receive(Packet(FLOW, 0, MSS), now)
    gro.check_timeouts(20 * US)                     # INSEQ_TIMEOUT
    # RETRANSMISSION: wholly below seq_next.
    gro.receive(Packet(FLOW, 0, MSS), 25 * US)
    # SEGMENT_FULL: a full 64 KB in sequence.
    seq = MSS
    for _ in range(MAX_GRO_SEGMENT // MSS + 1):
        gro.receive(Packet(FLOW, seq, MSS), 30 * US)
        seq += MSS
    # FLAGS: push.
    gro.receive(Packet(FLOW, seq, MSS, flags=TcpFlags.ACK | TcpFlags.PSH),
                35 * US)
    seq += MSS
    # UNMERGEABLE: CE-marked next packet.
    gro.receive(Packet(FLOW, seq, MSS), 40 * US)
    gro.receive(Packet(FLOW, seq + MSS, MSS, ce=True), 41 * US)
    gro.check_timeouts(60 * US)
    seq += 2 * MSS
    # OFO_TIMEOUT: a hole that never fills.
    gro.receive(Packet(FLOW, seq + 2 * MSS, MSS), 70 * US)
    gro.check_timeouts(200 * US)
    return gro.stats.flush_reasons


def test_tab02_all_conditions():
    reasons = exercise_all_conditions()
    table2 = [
        FlushReason.RETRANSMISSION,
        FlushReason.SEGMENT_FULL,
        FlushReason.FLAGS,
        FlushReason.UNMERGEABLE,
        FlushReason.INSEQ_TIMEOUT,
        FlushReason.OFO_TIMEOUT,
    ]
    for reason in table2:
        assert reasons.get(reason, 0) > 0, f"{reason} never fired"
    body = "\n".join(f"  {r.value:20s} fired {reasons[r]}x" for r in table2)
    show("Table 2 — flushing conditions (all six exercised)", body)
