"""Re-armable hrtimer semantics."""

from repro.sim.engine import Engine
from repro.sim.timer import Timer


def make(engine):
    fired = []
    timer = Timer(engine, lambda: fired.append(engine.now))
    return timer, fired


def test_fires_once_at_deadline():
    engine = Engine()
    timer, fired = make(engine)
    timer.arm_after(100)
    engine.run()
    assert fired == [100]


def test_disarmed_after_fire():
    engine = Engine()
    timer, fired = make(engine)
    timer.arm_after(100)
    engine.run()
    assert not timer.armed
    assert timer.expires_at is None


def test_rearm_moves_deadline():
    engine = Engine()
    timer, fired = make(engine)
    timer.arm_after(100)
    timer.arm_after(200)
    engine.run()
    assert fired == [200]


def test_cancel_prevents_fire():
    engine = Engine()
    timer, fired = make(engine)
    timer.arm_after(100)
    timer.cancel()
    engine.run()
    assert fired == []


def test_cancel_idempotent():
    engine = Engine()
    timer, _ = make(engine)
    timer.cancel()
    timer.cancel()
    assert not timer.armed


def test_arm_at_absolute_time():
    engine = Engine()
    timer, fired = make(engine)
    engine.schedule(50, lambda: None)
    engine.run()
    timer.arm_at(80)
    engine.run()
    assert fired == [80]


def test_rearm_inside_callback():
    engine = Engine()
    fired = []

    def cb():
        fired.append(engine.now)
        if len(fired) < 3:
            timer.arm_after(10)

    timer = Timer(engine, cb)
    timer.arm_after(10)
    engine.run()
    assert fired == [10, 20, 30]


def test_expires_at_reports_pending_deadline():
    engine = Engine()
    timer, _ = make(engine)
    timer.arm_at(42)
    assert timer.expires_at == 42
