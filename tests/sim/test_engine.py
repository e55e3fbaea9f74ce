"""Engine ordering, scheduling and run-control semantics."""

import pytest

from repro.sim.engine import Engine, SimulationError


def test_starts_at_time_zero():
    assert Engine().now == 0


def test_runs_events_in_time_order():
    engine = Engine()
    fired = []
    engine.schedule(300, fired.append, 3)
    engine.schedule(100, fired.append, 1)
    engine.schedule(200, fired.append, 2)
    engine.run()
    assert fired == [1, 2, 3]


def test_same_time_events_fire_in_scheduling_order():
    engine = Engine()
    fired = []
    for i in range(10):
        engine.schedule(50, fired.append, i)
    engine.run()
    assert fired == list(range(10))


def test_now_advances_to_event_time():
    engine = Engine()
    seen = []
    engine.schedule(123, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [123]
    assert engine.now == 123


def test_zero_delay_event_fires_after_current():
    engine = Engine()
    fired = []

    def outer():
        engine.schedule(0, fired.append, "inner")
        fired.append("outer")

    engine.schedule(10, outer)
    engine.run()
    assert fired == ["outer", "inner"]


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Engine().schedule(-1, lambda: None)


def test_schedule_at_in_past_rejected():
    engine = Engine()
    engine.schedule(100, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule_at(50, lambda: None)


def test_cancel_prevents_firing():
    engine = Engine()
    fired = []
    handle = engine.schedule(100, fired.append, 1)
    engine.schedule(50, handle.cancel)
    engine.run()
    assert fired == []


def test_cancel_is_idempotent():
    engine = Engine()
    handle = engine.schedule(100, lambda: None)
    handle.cancel()
    handle.cancel()
    engine.run()
    assert not handle.active


def test_handle_reports_time_and_activity():
    engine = Engine()
    handle = engine.schedule(250, lambda: None)
    assert handle.time == 250
    assert handle.active
    engine.run()
    assert not handle.active


def test_run_until_stops_at_boundary():
    engine = Engine()
    fired = []
    engine.schedule(100, fired.append, 1)
    engine.schedule(200, fired.append, 2)
    engine.run_until(150)
    assert fired == [1]
    assert engine.now == 150
    engine.run_until(300)
    assert fired == [1, 2]


def test_run_until_includes_boundary_events():
    engine = Engine()
    fired = []
    engine.schedule(150, fired.append, 1)
    engine.run_until(150)
    assert fired == [1]


def test_run_until_backwards_rejected():
    engine = Engine()
    engine.run_until(100)
    with pytest.raises(SimulationError):
        engine.run_until(50)


def test_events_scheduled_during_run_execute():
    engine = Engine()
    fired = []
    engine.schedule(10, lambda: engine.schedule(10, fired.append, "chained"))
    engine.run()
    assert fired == ["chained"]
    assert engine.now == 20


def test_max_events_bound():
    engine = Engine()
    count = []

    def recur():
        count.append(1)
        engine.schedule(1, recur)

    engine.schedule(1, recur)
    engine.run(max_events=5)
    assert len(count) == 5


def test_max_events_zero_runs_nothing():
    engine = Engine()
    fired = []
    for t in range(1, 6):
        engine.schedule(t, fired.append, t)
    engine.run(max_events=0)
    assert fired == []
    assert engine.now == 0
    assert engine.events_processed == 0
    engine.run()
    assert fired == [1, 2, 3, 4, 5]


def test_negative_max_events_is_rejected():
    engine = Engine()
    fired = []
    for t in range(1, 6):
        engine.schedule(t, fired.append, t)
    with pytest.raises(ValueError):
        engine.run(max_events=-3)
    assert fired == []


def test_events_processed_counter_skips_cancelled():
    engine = Engine()
    handle = engine.schedule(10, lambda: None)
    engine.schedule(20, lambda: None)
    handle.cancel()
    engine.run()
    assert engine.events_processed == 1


def test_step_returns_false_when_empty():
    assert Engine().step() is False


def test_step_executes_single_event():
    engine = Engine()
    fired = []
    engine.schedule(5, fired.append, "a")
    engine.schedule(6, fired.append, "b")
    assert engine.step() is True
    assert fired == ["a"]


def test_callback_args_passed_through():
    engine = Engine()
    seen = []
    engine.schedule(1, lambda a, b, c: seen.append((a, b, c)), 1, "x", None)
    engine.run()
    assert seen == [(1, "x", None)]


def test_pending_counts_heap_entries():
    engine = Engine()
    engine.schedule(1, lambda: None)
    engine.schedule(2, lambda: None)
    assert engine.pending == 2
