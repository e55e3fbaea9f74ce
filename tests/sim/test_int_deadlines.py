"""Deadlines are integer nanoseconds — on every scheduling path of real cells.

The heap would order a float deadline without complaint, but float rounding
differs across platforms and a single float would end cross-platform
determinism.  Nothing on the hot path checks the type, so this test does:
it runs short cells of three experiments on an engine that asserts it.
"""

import pytest

from repro.experiments import (
    cell,
    fig13_ofo_timeout_throughput as fig13,
    fig15_active_flows as fig15,
    host_vs_fabric,
)
from repro.sim.engine import Engine
from repro.sim.timer import Timer


def check_int(when, callback):
    """The guard: ``when`` is a delay or a deadline, either must be ``int``
    (``now`` is one by induction)."""
    assert type(when) is int, (
        f"{getattr(callback, '__qualname__', callback)} scheduled at "
        f"{when!r} ({type(when).__name__})")
    IntDeadlineEngine.scheduled += 1


class IntDeadlineEngine(Engine):
    """Fails the moment anything schedules a non-``int`` deadline.

    Checked on the public scheduling calls — ``post``/``post_at`` push their
    heap entry themselves, so no private method sees every event."""

    scheduled = 0

    def schedule(self, delay, callback, *args):
        check_int(delay, callback)
        return super().schedule(delay, callback, *args)

    def schedule_at(self, time, callback, *args):
        check_int(time, callback)
        return super().schedule_at(time, callback, *args)

    def post(self, delay, callback, *args):
        check_int(delay, callback)
        super().post(delay, callback, *args)

    def post_at(self, time, callback, *args):
        check_int(time, callback)
        super().post_at(time, callback, *args)


@pytest.fixture
def checked(monkeypatch):
    """Every experiment builds its engine in ``cell.py``: swap it there.
    ``Timer.arm_at`` is the fifth scheduling call and gets the same guard."""
    monkeypatch.setattr(IntDeadlineEngine, "scheduled", 0)
    monkeypatch.setattr(cell, "Engine", IntDeadlineEngine)
    arm_at = Timer.arm_at

    def checked_arm_at(timer, time):
        check_int(time, timer._callback)
        arm_at(timer, time)

    monkeypatch.setattr(Timer, "arm_at", checked_arm_at)


def test_netfpga_pair_cell_schedules_int_deadlines(checked):
    point = fig13.run_cell(fig13.Fig13Params(warmup_ms=1, measure_ms=3),
                           500, 300)
    assert point.throughput_gbps > 0
    assert IntDeadlineEngine.scheduled > 10_000


def test_paced_many_flow_cell_schedules_int_deadlines(checked):
    # Pacing divides bits by a fractional per-flow rate: the likeliest place
    # for a float to leak into a deadline.
    point = fig15.run_cell(fig15.Fig15Params(warmup_ms=1, measure_ms=3),
                           48, 250)
    assert point.max_active_flows > 0
    assert IntDeadlineEngine.scheduled > 10_000


def test_clos_cell_with_fault_windows_schedules_int_deadlines(checked):
    point = host_vs_fabric.run_point(
        host_vs_fabric.HostFabricParams(warmup_ms=1, measure_ms=2),
        engine="juggler", routing="per_packet", load=3, fault=1)
    assert point.goodput_gbps > 0
    assert IntDeadlineEngine.scheduled > 10_000


def test_the_checked_engine_rejects_a_float_deadline():
    engine = IntDeadlineEngine()
    with pytest.raises(AssertionError):
        engine.post(1.5, lambda: None)


@pytest.mark.parametrize("call", [
    lambda engine: engine.schedule(1.5, print),
    lambda engine: engine.schedule_at(1.5, print),
    lambda engine: engine.post_at(1.5, print),
    lambda engine: Timer(engine, print).arm_at(1.5),
    lambda engine: Timer(engine, print).arm_after(1.5),
], ids=["schedule", "schedule_at", "post_at", "arm_at", "arm_after"])
def test_every_other_scheduling_call_is_guarded_too(checked, call):
    with pytest.raises(AssertionError):
        call(IntDeadlineEngine())
