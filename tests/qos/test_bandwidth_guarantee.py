"""The p <- p + alpha(Rt - Rm) marking controller."""

import random

import pytest

from repro.net.constants import PRIORITY_HIGH, PRIORITY_LOW, MSS
from repro.net.addr import FiveTuple
from repro.net.packet import Packet
from repro.qos.bandwidth_guarantee import BandwidthGuaranteeController
from repro.sim.engine import Engine
from repro.sim.time import MS, US
from repro.tcp.config import TcpConfig
from repro.tcp.sender import TcpSender


class TxCapture:
    def __init__(self):
        self.packets = []

    def register_handler(self, flow, handler):
        pass

    def unregister_handler(self, flow):
        pass

    def transmit(self, packet):
        self.packets.append(packet)


def make(target_gbps=20.0, line=40.0, alpha=0.1, interval=100 * US):
    engine = Engine()
    sender = TcpSender(engine, TxCapture(), FiveTuple(0, 1, 1000, 80),
                       TcpConfig())
    controller = BandwidthGuaranteeController(
        engine, sender, random.Random(0), target_gbps=target_gbps,
        line_rate_gbps=line, alpha=alpha, update_interval_ns=interval)
    return engine, sender, controller


def test_p_starts_at_zero():
    _, _, controller = make()
    assert controller.p == 0.0


def test_p_rises_when_below_target():
    engine, sender, controller = make()
    controller.start()
    engine.run_until(2 * MS)  # sender never acked anything: Rm = 0
    assert controller.p > 0.0


def test_p_clamped_to_one():
    engine, sender, controller = make(target_gbps=40.0, alpha=5.0)
    controller.start()
    engine.run_until(5 * MS)
    assert controller.p == 1.0


def test_p_falls_when_above_target():
    engine, sender, controller = make(target_gbps=1.0, alpha=0.5)
    controller.p = 1.0
    controller.start()
    # Simulate heavy acking: rate far above 1 Gb/s.
    def pump():
        sender.snd_una += 1 << 20
        engine.schedule(100 * US, pump)
    pump()
    engine.run_until(5 * MS)
    assert controller.p < 1.0


def test_priority_fn_distribution_follows_p():
    _, sender, controller = make()
    controller.p = 0.7
    picks = [controller.priority_fn(Packet(FiveTuple(0, 1, 1, 2), 0, MSS))
             for _ in range(2000)]
    high = sum(1 for p in picks if p == PRIORITY_HIGH)
    assert 0.62 < high / 2000 < 0.78


def test_priority_fn_all_low_at_p_zero():
    _, _, controller = make()
    picks = {controller.priority_fn(Packet(FiveTuple(0, 1, 1, 2), 0, MSS))
             for _ in range(100)}
    assert picks == {PRIORITY_LOW}


def test_trace_records_samples():
    engine, _, controller = make(interval=100 * US)
    controller.start()
    engine.run_until(1 * MS)
    assert len(controller.trace) >= 9
    t0, rate, p = controller.trace[0]
    assert rate == 0.0


def test_stop_halts_updates():
    engine, _, controller = make()
    controller.start()
    engine.run_until(1 * MS)
    n = len(controller.trace)
    controller.stop()
    engine.run_until(2 * MS)
    assert len(controller.trace) == n


def test_start_idempotent():
    engine, _, controller = make()
    controller.start()
    controller.start()
    engine.run_until(1 * MS)
    # One update chain, not two.
    times = [t for t, _, _ in controller.trace]
    assert len(times) == len(set(times))


def test_measured_gbps_none_before_first_update():
    _, _, controller = make()
    assert controller.measured_gbps() is None


def test_parameter_validation():
    engine = Engine()
    sender = TcpSender(engine, TxCapture(), FiveTuple(0, 1, 1, 2))
    with pytest.raises(ValueError):
        BandwidthGuaranteeController(engine, sender, random.Random(0),
                                     target_gbps=1, line_rate_gbps=0)
    with pytest.raises(ValueError):
        BandwidthGuaranteeController(engine, sender, random.Random(0),
                                     target_gbps=1, line_rate_gbps=10,
                                     smoothing=0.0)
