"""Unit tests for the congestion-control policies (hook-level)."""

import pytest

from repro.cc.base import CC_ALGORITHMS, make_cc
from repro.cc.bbr import BbrV1CC, MIN_CWND, PROBE_BW_GAINS, STARTUP_GAIN
from repro.cc.cubic import CubicCC
from repro.cc.dctcp import DctcpCC
from repro.cc.reno import RenoCC
from repro.cc.rtt import RttEstimator
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.flags import TcpFlags
from repro.net.packet import Packet
from repro.net.segment import Segment
from repro.sim.engine import Engine
from repro.sim.time import MS, US
from repro.tcp.config import TcpConfig
from repro.tcp.sender import TcpSender
from repro.trace import runtime
from repro.trace.events import EventKind
from repro.trace.sinks import RingBufferSink
from repro.trace.tracer import Tracer


def policy(name, config=None):
    config = config or TcpConfig(cc=name)
    return make_cc(name, config, RttEstimator())


def ack_kw(**overrides):
    kw = dict(ack=0, snd_nxt=0, flight=0, in_recovery=False,
              recovery_exit=False)
    kw.update(overrides)
    return kw


# -- factory -------------------------------------------------------------------

def test_factory_covers_all_registered_names():
    assert sorted(CC_ALGORITHMS) == ["bbr", "cubic", "dctcp", "reno"]
    classes = {"reno": RenoCC, "cubic": CubicCC, "dctcp": DctcpCC,
               "bbr": BbrV1CC}
    for name, (module, cls) in CC_ALGORITHMS.items():
        built = policy(name)
        assert type(built) is classes[name]
        assert (type(built).__module__, type(built).__name__) == (module, cls)
        assert built.name == name


def test_factory_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown congestion control"):
        make_cc("vegas", TcpConfig(), RttEstimator())


def test_config_rejects_unknown_cc():
    with pytest.raises(ValueError, match="unknown congestion control"):
        TcpConfig(cc="vegas")


@pytest.mark.parametrize("rx_buffer", [0, 1000, -5])
def test_config_rejects_rx_buffer_below_one_mss(rx_buffer):
    # A window that never opens for one segment ran the cell to the end at
    # zero goodput, without an error.
    with pytest.raises(ValueError, match=rf"rx_buffer.*{rx_buffer}"):
        TcpConfig(rx_buffer=rx_buffer)


def test_config_and_factory_name_the_same_choices():
    with pytest.raises(ValueError) as from_config:
        TcpConfig(cc="vegas")
    with pytest.raises(ValueError) as from_factory:
        make_cc("vegas", TcpConfig(), RttEstimator())
    assert str(from_config.value) == str(from_factory.value)
    assert str(sorted(CC_ALGORITHMS)) in str(from_config.value)


# -- Reno (the historical default, extracted verbatim) -------------------------

def test_reno_slow_start_grows_by_acked_bytes():
    cc = policy("reno")
    start = cc.cwnd
    cc.on_ack(3 * MSS, 0, **ack_kw())
    assert cc.cwnd == start + 3 * MSS
    assert cc.state() == "slow_start"


def test_reno_congestion_avoidance_grows_one_mss_per_window():
    cc = policy("reno")
    cc.ssthresh = cc.cwnd  # leave slow start
    start = cc.cwnd
    cc.on_ack(2 * MSS, 0, **ack_kw())
    assert cc.cwnd == start + max(1, MSS * 2 * MSS // start)
    assert cc.state() == "cong_avoid"


def test_reno_recovery_entry_halves_flight_plus_three():
    cc = policy("reno")
    cc.on_recovery_start(20 * MSS, 0)
    assert cc.ssthresh == 10 * MSS
    assert cc.cwnd == 13 * MSS
    assert cc.recoveries == 1


def test_reno_dupack_inflation_only_inside_recovery():
    cc = policy("reno")
    start = cc.cwnd
    cc.on_dupack(1, in_recovery=False)
    assert cc.cwnd == start
    cc.on_dupack(2, in_recovery=True)
    assert cc.cwnd == start + MSS


def test_reno_recovery_exit_deflates_to_ssthresh():
    cc = policy("reno")
    cc.on_recovery_start(20 * MSS, 0)
    cc.on_ack(MSS, 0, **ack_kw(recovery_exit=True))
    assert cc.cwnd == cc.ssthresh


def test_reno_rto_collapses_to_one_mss():
    cc = policy("reno")
    cc.on_rto(20 * MSS, 0)
    assert cc.cwnd == MSS
    assert cc.ssthresh == 10 * MSS


def test_reno_dctcp_reaction_to_ce_marks():
    cc = policy("reno")
    cc.ssthresh = cc.cwnd  # window updates visible immediately
    cc.on_ce(5 * MSS)
    cc.on_ack(10 * MSS, 0, **ack_kw(ack=10 * MSS, snd_nxt=10 * MSS))
    assert cc.dctcp_alpha > 0.0


# -- DCTCP ---------------------------------------------------------------------

def test_dctcp_is_always_on_with_rfc8257_alpha_init():
    cc = policy("dctcp")
    assert isinstance(cc, RenoCC)
    assert cc.dctcp_alpha == 1.0
    cc.on_ce(2 * MSS)
    before = cc.cwnd
    cc.on_ack(4 * MSS, 0, **ack_kw(ack=4 * MSS, snd_nxt=4 * MSS))
    assert cc.cwnd < before + 4 * MSS  # the mark cut into the window


# -- CUBIC ---------------------------------------------------------------------

def test_cubic_beta_reduction_and_fast_convergence():
    cc = policy("cubic")
    cc.cwnd = 100 * MSS
    cc.on_recovery_start(100 * MSS, 0)
    assert cc.ssthresh == int(100 * MSS * 0.7)
    assert cc.cwnd == cc.ssthresh
    assert cc.w_max == pytest.approx(100.0)
    # A second loss below the plateau releases capacity (fast convergence).
    cc.on_recovery_start(cc.cwnd, 0)
    assert cc.w_max == pytest.approx(70 * (2 - 0.7) / 2)


def test_cubic_grows_toward_wmax_then_probes_beyond():
    cc = policy("cubic")
    rtt = cc.rtt
    rtt.sample(100 * US)
    cc.cwnd = 100 * MSS
    cc.on_recovery_start(100 * MSS, 0)
    cc.on_ack(MSS, 0, **ack_kw(recovery_exit=True))
    start = cc.cwnd
    now = 0
    for _ in range(1500):
        now += 100 * US
        cc.on_ack(10 * MSS, now, **ack_kw())
    # Concave recovery climbs back to the plateau, then convex probing
    # pushes beyond it.
    assert cc.cwnd > start
    assert cc.cwnd / MSS > 100.0


def test_cubic_rto_resets_epoch():
    cc = policy("cubic")
    cc.cwnd = 50 * MSS
    cc.on_rto(50 * MSS, 0)
    assert cc.cwnd == MSS
    assert cc._epoch_start is None


# -- BBRv1 ---------------------------------------------------------------------

def drive_bbr(cc, *, rounds, rtt_ns=100 * US, bw_gbps=10.0, start_ns=0):
    """Feed a steady pipe: each round sends one flight, ACKed one RTT later."""
    now = start_ns
    seq = cc._round_end_seq
    flight = int(bw_gbps * rtt_ns / 8) or MSS
    for _ in range(rounds):
        seq += flight
        cc.on_send(seq, flight, now)
        now += rtt_ns
        cc.rtt.sample(rtt_ns, now)
        cc.on_ack(flight, now, **ack_kw(ack=seq, snd_nxt=seq,
                                        flight=flight))
    return now, seq


def test_bbr_startup_fills_then_drains_then_probes():
    cc = policy("bbr")
    assert cc.state() == "startup"
    assert cc.pacing_gain == STARTUP_GAIN
    now, _ = drive_bbr(cc, rounds=8)
    # Constant delivery rate -> the bw filter plateaus -> full pipe.
    assert cc.filled_pipe
    assert cc.state() in ("drain", "probe_bw")
    # Drain exits once flight <= BDP; our driver keeps flight == BDP.
    drive_bbr(cc, rounds=2, start_ns=now)
    assert cc.state() == "probe_bw"
    assert cc.pacing_gain in PROBE_BW_GAINS


def test_bbr_models_the_bottleneck_bandwidth():
    cc = policy("bbr")
    drive_bbr(cc, rounds=10, bw_gbps=10.0)
    assert cc.pacing_rate_gbps() == pytest.approx(
        10.0 * cc.pacing_gain, rel=0.05)
    assert cc.delivery_rate_gbps() == pytest.approx(10.0, rel=0.05)
    bdp = cc.bdp_bytes()
    assert bdp == pytest.approx(10.0 * (100 * US) / 8, rel=0.05)


def test_bbr_ignores_recovery_but_collapses_on_rto():
    cc = policy("bbr")
    drive_bbr(cc, rounds=10)
    before = cc.cwnd
    cc.on_recovery_start(before, 0)
    assert cc.cwnd == before          # dupACKs do not move the model
    assert cc.ssthresh == 1 << 62     # never engaged
    assert cc.recoveries == 1
    cc.on_rto(before, 0)
    assert cc.cwnd == MSS             # genuine silence does
    assert not cc.sampler._marks


def test_bbr_cwnd_tracks_gain_times_bdp():
    cc = policy("bbr")
    now, _ = drive_bbr(cc, rounds=12)
    target = cc.bdp_bytes(cc.cwnd_gain)
    assert cc.cwnd <= max(target, MIN_CWND)
    assert cc.cwnd >= MIN_CWND


def test_bbr_emits_cc_state_transitions_when_traced():
    sink = RingBufferSink()
    tracer = Tracer([sink])
    cc = BbrV1CC(TcpConfig(cc="bbr"), RttEstimator(), tracer=tracer,
                 flow="f")
    drive_bbr(cc, rounds=12)
    kinds = [e.kind for e in sink.events]
    assert EventKind.CC_STATE in kinds
    transitions = [(e.old_state, e.new_state) for e in sink.events
                   if e.kind is EventKind.CC_STATE]
    assert ("startup", "drain") in transitions


# -- recovery events -------------------------------------------------------------

class _TxSink:
    """Stands in for the sender's host: keeps nothing."""

    def register_handler(self, flow, handler):
        pass

    def transmit(self, packet):
        pass


def _traced_sender():
    sink = RingBufferSink()
    engine = Engine()
    with runtime.tracing(Tracer([sink])):
        sender = TcpSender(engine, _TxSink(), FiveTuple(0, 1, 1000, 80),
                           TcpConfig(init_cwnd=40 * MSS))
    return engine, sender, sink


def _ack(sender, num, sack=()):
    sender.on_ack_segment(Segment([Packet(
        sender.flow.reversed(), 0, 0, flags=TcpFlags.ACK, ack=num,
        rwnd=1 << 22, sack=sack)]))


def _recoveries(sink):
    return [e for e in sink.events if e.kind is EventKind.CC_RECOVERY]


def test_cc_recovery_event_at_fast_retransmit():
    engine, sender, sink = _traced_sender()
    sender.send(1 << 20)
    _ack(sender, 10 * MSS)
    for i in range(3):
        assert _recoveries(sink) == []
        _ack(sender, 10 * MSS, sack=((12 * MSS, (13 + i) * MSS),))
    (event,) = _recoveries(sink)
    assert sender.fast_retransmits == 1
    assert (event.trigger, event.algo) == ("fast_retransmit", "reno")
    assert (event.cwnd, event.ssthresh) == (sender.cwnd, sender.ssthresh)
    assert event.ssthresh < event.cwnd  # halved flight plus three MSS


def test_cc_recovery_event_at_rto():
    engine, sender, sink = _traced_sender()
    sender.send(10 * MSS)
    engine.run_until(1 * MS + 1)  # the first RTO fires at MIN_RTO, 1 ms
    (event,) = _recoveries(sink)
    assert sender.rtos == 1
    assert (event.trigger, event.algo) == ("rto", "reno")
    assert (event.cwnd, event.ssthresh) == (sender.cwnd, sender.ssthresh)
    assert event.cwnd == MSS
