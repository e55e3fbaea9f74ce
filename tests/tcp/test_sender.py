"""TCP sender: windows, recovery, RTO, SACK, DCTCP, pacing."""

import pytest

from tests.tcp.helpers import DirectPair

from repro.net.addr import FiveTuple
from repro.net.constants import MSS, MAX_TSO_PAYLOAD, PRIORITY_HIGH
from repro.net.flags import TcpFlags
from repro.net.packet import Packet
from repro.net.segment import Segment
from repro.sim.engine import Engine
from repro.sim.time import MS, US
from repro.tcp.config import TcpConfig
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender

FLOW = FiveTuple(0, 1, 1000, 80)


class TxCapture:
    """Stands in for the host: records transmitted packets."""

    def __init__(self):
        self.packets = []

    def register_handler(self, flow, handler):
        pass

    def unregister_handler(self, flow):
        pass

    def transmit(self, packet):
        self.packets.append(packet)


def make_sender(config=None, **kw):
    engine = Engine()
    host = TxCapture()
    sender = TcpSender(engine, host, FLOW, config or TcpConfig(), **kw)
    return engine, host, sender


def ack(num, rwnd=1 << 22, sack=(), ce_bytes=0):
    packet = Packet(FLOW.reversed(), 0, 0, flags=TcpFlags.ACK, ack=num,
                    rwnd=rwnd, sack=sack)
    packet.ce_bytes = ce_bytes
    return Segment([packet])


def test_initial_send_limited_by_cwnd():
    engine, host, sender = make_sender(TcpConfig(init_cwnd=10 * MSS))
    sender.send(1 << 20)
    assert sender.snd_nxt == 10 * MSS
    assert sum(p.payload_len for p in host.packets) == 10 * MSS


def test_tso_ids_are_counted_per_sender():
    """Burst ids restart at 0 for every sender, whatever sent before it in
    this process: per-TSO routing hashes (flow, tso_id)."""
    for _ in range(2):
        engine, host, sender = make_sender(TcpConfig(init_cwnd=100 * MSS))
        sender.send(100 * MSS)
        ids = [p.tso_id for p in host.packets]
        assert ids[0] == 0
        assert sorted(set(ids)) == list(range(sender.bursts_sent))
        assert sender.bursts_sent >= 2


def test_ack_clocking_releases_more_data():
    engine, host, sender = make_sender(TcpConfig(init_cwnd=10 * MSS))
    sender.send(1 << 20)
    sender.on_ack_segment(ack(5 * MSS))
    assert sender.snd_una == 5 * MSS
    assert sender.snd_nxt > 10 * MSS


def test_slow_start_doubles_per_window():
    engine, host, sender = make_sender(TcpConfig(init_cwnd=10 * MSS))
    sender.send(1 << 24)
    sender.on_ack_segment(ack(10 * MSS))
    assert sender.cwnd == 20 * MSS


def test_congestion_avoidance_linear():
    config = TcpConfig(init_cwnd=10 * MSS)
    engine, host, sender = make_sender(config)
    sender.send(1 << 24)
    sender.ssthresh = 5 * MSS  # below cwnd: CA mode
    before = sender.cwnd
    sender.on_ack_segment(ack(10 * MSS))
    assert before < sender.cwnd <= before + 2 * MSS


def test_three_dupacks_trigger_fast_retransmit():
    engine, host, sender = make_sender(TcpConfig(init_cwnd=40 * MSS))
    sender.send(1 << 20)
    sender.on_ack_segment(ack(10 * MSS))
    host.packets.clear()
    block = ((12 * MSS, 13 * MSS),)
    for i in range(3):
        # Each dupack must carry NEW sack info to count (RFC 6675).
        sender.on_ack_segment(ack(10 * MSS,
                                  sack=((12 * MSS, (13 + i) * MSS),)))
    assert sender.fast_retransmits == 1
    assert sender.in_recovery
    retx = [p for p in host.packets if p.is_retransmission]
    assert retx and retx[0].seq == 10 * MSS


def test_dsack_only_acks_do_not_count():
    engine, host, sender = make_sender(TcpConfig(init_cwnd=40 * MSS))
    sender.send(1 << 20)
    sender.on_ack_segment(ack(10 * MSS))
    for _ in range(5):
        # DSACK below snd_una: no new scoreboard info -> ignored.
        sender.on_ack_segment(ack(10 * MSS, sack=((0, MSS),)))
    assert sender.fast_retransmits == 0
    assert sender.dup_acks == 0


def test_plain_dupacks_without_sack_count():
    engine, host, sender = make_sender(TcpConfig(init_cwnd=40 * MSS))
    sender.send(1 << 20)
    sender.on_ack_segment(ack(10 * MSS))
    for _ in range(3):
        sender.on_ack_segment(ack(10 * MSS))
    assert sender.fast_retransmits == 1


def test_early_retransmit_lowers_threshold():
    config = TcpConfig(init_cwnd=10 * MSS)
    engine, host, sender = make_sender(config)
    sender.send(2 * MSS)  # two segments outstanding -> threshold 1
    sender.on_ack_segment(ack(0, sack=((MSS, 2 * MSS),)))
    assert sender.fast_retransmits == 1


def test_recovery_exit_restores_ssthresh():
    engine, host, sender = make_sender(TcpConfig(init_cwnd=40 * MSS))
    sender.send(1 << 20)
    sender.on_ack_segment(ack(10 * MSS))
    for i in range(3):
        sender.on_ack_segment(ack(10 * MSS,
                                  sack=((12 * MSS, (13 + i) * MSS),)))
    recover = sender.recover
    sender.on_ack_segment(ack(recover))
    assert not sender.in_recovery
    assert sender.cwnd == sender.ssthresh


def test_sack_recovery_walks_holes_via_partial_acks():
    engine, host, sender = make_sender(TcpConfig(init_cwnd=40 * MSS))
    sender.send(40 * MSS)
    sender.on_ack_segment(ack(10 * MSS))
    host.packets.clear()
    # Peer holds [12,14) and [16,18): holes at [10,12), [14,16), [18,...).
    blocks = ((12 * MSS, 14 * MSS), (16 * MSS, 18 * MSS))
    sender.on_ack_segment(ack(10 * MSS, sack=blocks))  # triggers recovery
    assert sender.fast_retransmits == 1
    # Each retransmission produces a partial ACK; recovery walks the holes.
    sender.on_ack_segment(ack(11 * MSS, sack=blocks))
    sender.on_ack_segment(ack(14 * MSS, sack=(blocks[1],)))  # [12,14) merged
    sender.on_ack_segment(ack(15 * MSS, sack=(blocks[1],)))
    retx_ranges = [(p.seq, p.end_seq) for p in host.packets
                   if p.is_retransmission]
    covered = set()
    for s, e in retx_ranges:
        covered.update(range(s // MSS, e // MSS))
    assert {10, 11, 14, 15} <= covered
    assert 12 not in covered and 16 not in covered  # SACKed data not resent


def test_rto_goes_back_to_snd_una():
    engine, host, sender = make_sender(TcpConfig(init_cwnd=10 * MSS))
    sender.send(10 * MSS)
    host.packets.clear()
    engine.run_until(5 * MS)  # no ACKs: RTO fires
    assert sender.rtos >= 1
    assert sender.cwnd == MSS
    assert host.packets[0].is_retransmission
    assert host.packets[0].seq == 0
    assert sender.snd_nxt == MSS  # pointer pulled back


def test_rto_backoff_doubles():
    engine, host, sender = make_sender(TcpConfig(init_cwnd=10 * MSS))
    sender.send(10 * MSS)
    engine.run_until(10 * MS)
    assert sender.rtos >= 2
    assert sender._rto_backoff >= 4


def test_ack_progress_resets_backoff():
    engine, host, sender = make_sender(TcpConfig(init_cwnd=10 * MSS))
    sender.send(10 * MSS)
    engine.run_until(2 * MS)
    assert sender._rto_backoff > 1
    sender.on_ack_segment(ack(MSS))
    assert sender._rto_backoff == 1


def test_peer_rwnd_limits_flight():
    engine, host, sender = make_sender(TcpConfig(init_cwnd=100 * MSS))
    sender.peer_rwnd = 5 * MSS
    sender.send(1 << 20)
    assert sender.flight_size <= 5 * MSS


def test_done_when_all_acked():
    engine, host, sender = make_sender()
    sender.send(5 * MSS)
    assert not sender.done
    sender.on_ack_segment(ack(5 * MSS))
    assert sender.done
    assert not sender._rto_timer.armed


def test_dctcp_reduces_cwnd_on_marks():
    config = TcpConfig(init_cwnd=40 * MSS)
    engine, host, sender = make_sender(config)
    sender.send(1 << 22)
    # First fully-marked window: ends slow start (one-window lag is real
    # DCTCP behaviour) and seeds alpha.
    sender.on_ack_segment(ack(20 * MSS, ce_bytes=20 * MSS))
    after_first = sender.cwnd
    assert sender.dctcp_alpha > 0
    assert sender.ssthresh <= sender.cwnd  # slow start over
    # Continued marking now shrinks the window monotonically.
    acked = 20 * MSS
    for _ in range(8):
        step = sender.cwnd
        acked += step
        sender.on_ack_segment(ack(acked, ce_bytes=step))
    assert sender.cwnd < after_first


def test_dctcp_alpha_decays_without_marks():
    config = TcpConfig(init_cwnd=10 * MSS)
    engine, host, sender = make_sender(config)
    sender.dctcp_alpha = 1.0
    sender.send(1 << 22)
    for i in range(1, 12):
        sender.on_ack_segment(ack(i * 10 * MSS))
    assert sender.dctcp_alpha < 1.0


def test_pacing_spaces_bursts():
    config = TcpConfig(init_cwnd=1 << 20)
    engine, host, sender = make_sender(config, pacing_gbps=1.0)
    sender.send(1 << 20)
    first_burst_bytes = sum(p.payload_len for p in host.packets)
    assert first_burst_bytes <= MAX_TSO_PAYLOAD
    engine.run_until(engine.now + 2 * MS)
    # More data released over time without any ACKs (pacing wakeups).
    assert sum(p.payload_len for p in host.packets) > first_burst_bytes


def test_close_stops_a_paced_sender():
    """``close()`` left the pacing wakeup armed: the sender kept emitting
    what its window still allowed (114 -> 204 packets over the next 4 ms)
    and the peer's ACKs for it arrived as stray segments."""
    engine = Engine()
    pair = DirectPair(engine)
    sender = TcpSender(engine, pair.a, FLOW, pacing_gbps=1.0)
    TcpReceiver(engine, pair.b, FLOW)
    sender.send(1 << 20)
    engine.run_until(1 * MS)
    sender.close()
    sent, on_wire = sender.packets_sent, pair.link_ab.stats.packets
    assert sent > 0 and sender.snd_nxt < sender.data_target
    engine.run_until(5 * MS)
    assert sender.packets_sent == sent
    assert pair.link_ab.stats.packets == on_wire


def test_booked_bytes_are_the_bytes_on_the_wire():
    """TSO clamps a burst to MAX_TSO_PAYLOAD; a sender with bigger bursts
    booked the excess as sent (64 MSS: 93,440 B booked, 64,240 B on the
    wire) and later "recovered" it as loss."""
    config = TcpConfig(init_cwnd=1 << 20)
    engine, host, sender = make_sender(config)
    sender.send(1 << 20)
    # What is booked is what went out, burst by burst.
    assert sender.snd_nxt == sum(p.payload_len for p in host.packets)
    bursts = {}
    for p in host.packets:
        bursts[p.tso_id] = bursts.get(p.tso_id, 0) + p.payload_len
    assert max(bursts.values()) == MAX_TSO_PAYLOAD


def test_priority_fn_applied_per_packet():
    engine, host, sender = make_sender(
        TcpConfig(init_cwnd=10 * MSS),
        priority_fn=lambda p: PRIORITY_HIGH)
    sender.send(5 * MSS)
    assert all(p.priority == PRIORITY_HIGH for p in host.packets)


def test_push_set_on_stream_end_only():
    engine, host, sender = make_sender(TcpConfig(init_cwnd=1 << 20))
    sender.send(3 * MSS)
    flags = [bool(p.flags & TcpFlags.PSH) for p in host.packets]
    assert flags == [False, False, True]


def test_send_rejects_nonpositive():
    engine, host, sender = make_sender()
    with pytest.raises(ValueError):
        sender.send(0)


def test_rtt_estimation_from_acks():
    engine, host, sender = make_sender()
    sender.send(5 * MSS)
    engine.schedule(100 * US, lambda: sender.on_ack_segment(ack(5 * MSS)))
    engine.run_until(200 * US)
    assert sender.srtt == pytest.approx(100 * US, rel=0.05)
