"""The engine's ordering and cancellation contract.

How pending events are stored is an implementation detail; these tests pin
what callers can observe: fire order is the (time, seq) total order, resident
cancelled events stay bounded under sustained re-arm churn, the
pending/live/tombstone counts add up, and a handle or timer that outlived its
event can never touch another one.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.sim.engine import Engine, COMPACT_FLOOR
from repro.sim.rng import RngRegistry
from repro.sim.timer import Timer

#: Deadlines of the data path sit within a few polling intervals of now
#: (NEAR); RTOs, fault windows and probes sit tens of milliseconds out (FAR).
NEAR_NS = 100_000
FAR_NS = 50_000_000


def _fire_order(schedule_plan):
    """Run a plan of (delay_from_start, tag) through the engine; return the
    tags in fire order."""
    engine = Engine()
    fired = []
    for delay, tag in schedule_plan:
        engine.schedule(delay, lambda t=tag: fired.append(t))
    engine.run()
    return fired


def test_fire_order_matches_reference_sort_near_and_far():
    rng = RngRegistry(7).stream("engine-order")
    plan = []
    for i in range(2_000):
        region = i % 4
        if region == 0:
            delay = rng.randrange(0, NEAR_NS)
        elif region == 1:
            delay = rng.randrange(0, FAR_NS)
        elif region == 2:
            delay = rng.randrange(FAR_NS, 4 * FAR_NS)
        else:
            delay = FAR_NS + (i % 3) - 1  # many ties on three instants
        plan.append((delay, i))
    reference = [tag for _, _, tag in
                 sorted((delay, seq, tag)
                        for seq, (delay, tag) in enumerate(plan))]
    assert _fire_order(plan) == reference


def test_fire_order_ties_between_far_and_near_scheduling():
    # The same instant reached by one event scheduled far ahead and one
    # scheduled 10 ns before it: the earlier-scheduled one fires first.
    engine = Engine()
    fired = []
    target = 2 * FAR_NS
    engine.schedule(target, fired.append, "scheduled-far-ahead")
    engine.schedule(target - 10, lambda: (
        engine.schedule(10, fired.append, "scheduled-just-before")))
    engine.run()
    assert fired == ["scheduled-far-ahead", "scheduled-just-before"]


def test_events_posted_for_now_fire_after_those_already_queued():
    engine = Engine()
    fired = []

    def first():
        fired.append("first")
        engine.post(0, fired.append, "posted-from-first")
        engine.post_at(engine.now, fired.append, "posted-at-now")

    engine.schedule(5, first)
    engine.schedule(5, fired.append, "second")
    engine.schedule(5, fired.append, "third")
    engine.run()
    assert fired == ["first", "second", "third",
                     "posted-from-first", "posted-at-now"]


def test_golden_seed_fire_sequence_is_reproducible():
    rng_a = RngRegistry(42).stream("golden")
    rng_b = RngRegistry(42).stream("golden")

    def sequence(rng):
        plan = [(rng.randrange(0, 3 * FAR_NS), i) for i in range(500)]
        return _fire_order(plan)

    assert sequence(rng_a) == sequence(rng_b)


def test_tombstones_bounded_under_sustained_rearm_churn():
    # The hrtimer pattern: 64 timers re-armed every poll against deadlines
    # ~1000 polls out.  Without compaction, resident cancelled events grow
    # with churn (tens of thousands here); with it they stay bounded.
    engine = Engine()
    timers = [Timer(engine, lambda: None) for _ in range(64)]
    max_resident = 0

    def poll(round_no):
        nonlocal max_resident
        for k, timer in enumerate(timers):
            timer.arm_at(engine.now + 1_000_000 + k * 100)
        max_resident = max(max_resident, engine.pending)
        assert engine.tombstones <= max(engine.pending_live, COMPACT_FLOOR)
        if round_no < 1_000:
            engine.schedule(1_000, poll, round_no + 1)

    engine.schedule(0, poll, 0)
    engine.run()
    assert engine.compactions > 0
    # 64k cancellations happened; residency stayed near the live count.
    assert max_resident <= 2 * max(64 + 2, COMPACT_FLOOR)
    # A fully drained engine holds nothing — live or tombstoned.
    assert engine.pending == 0
    assert engine.pending_live == 0


def test_pending_live_vs_pending_accounting():
    engine = Engine()
    keep = engine.schedule(100, lambda: None)
    drop = engine.schedule(200, lambda: None)
    assert engine.pending == 2
    assert engine.pending_live == 2
    drop.cancel()
    assert engine.pending_live == 1
    assert engine.pending == 2  # the tombstone is still resident
    assert engine.tombstones == 1
    engine.run()
    assert keep.active is False
    assert engine.pending == 0


def test_accounting_across_a_compaction():
    engine = Engine()
    fired = []
    live = [engine.schedule(FAR_NS + i, fired.append, i) for i in range(100)]
    doomed = [engine.schedule(NEAR_NS + i, fired.append, -1)
              for i in range(COMPACT_FLOOR + 1)]
    for n, handle in enumerate(doomed[:COMPACT_FLOOR], start=1):
        handle.cancel()
        assert engine.tombstones == n
        assert engine.pending_live == 100 + len(doomed) - n
        assert engine.pending == 100 + len(doomed)
    assert engine.compactions == 0
    # The next cancel makes tombstones exceed both the floor and the live
    # count: the heap is rebuilt from the live entries alone.
    doomed[-1].cancel()
    assert engine.compactions == 1
    assert engine.tombstones == 0
    assert engine.pending == engine.pending_live == 100
    assert all(h.active for h in live)
    engine.run()
    assert fired == list(range(100))
    assert engine.events_processed == 100
    assert engine.events_allocated == 100 + len(doomed)


def test_compaction_inside_a_callback_keeps_the_running_loop_consistent():
    engine = Engine()
    fired = []
    doomed = [engine.schedule(FAR_NS, fired.append, -1)
              for _ in range(2 * COMPACT_FLOOR)]

    def cancel_all():
        for handle in doomed:
            handle.cancel()
        fired.append("cancelled")

    engine.schedule(10, cancel_all)
    engine.schedule(20, fired.append, "after")
    engine.run_until(2 * FAR_NS)
    assert engine.compactions >= 1
    assert fired == ["cancelled", "after"]
    assert engine.pending == 0


def test_cancel_from_inside_the_events_own_callback_is_a_noop():
    engine = Engine()
    fired = []
    handles = []

    def callback():
        assert not handles[0].active
        handles[0].cancel()
        fired.append(engine.now)

    handles.append(engine.schedule(10, callback))
    engine.schedule(20, fired.append, "later")
    engine.run()
    assert fired == [10, "later"]
    assert engine.tombstones == 0
    assert engine.events_processed == 2


def test_cancel_after_fire_does_not_count_a_tombstone():
    engine = Engine()
    fired = []
    stale = engine.schedule(10, fired.append, "a")
    engine.run()
    assert not stale.active
    fresh = engine.schedule(10, fired.append, "b")
    stale.cancel()  # must not touch the event scheduled after it fired
    assert fresh.active
    assert engine.tombstones == 0
    assert engine.pending == engine.pending_live == 1
    engine.run()
    assert fired == ["a", "b"]


def test_timer_rearm_after_fire():
    engine = Engine()
    fires = []
    timer = Timer(engine, lambda: fires.append(engine.now))
    timer.arm_after(50)
    engine.run()
    assert fires == [50]
    assert not timer.armed
    # Cancelling a fired timer is a no-op.
    timer.cancel()
    assert engine.tombstones == 0
    timer.arm_after(25)
    assert timer.armed and timer.expires_at == 75
    engine.run()
    assert fires == [50, 75]


_OPS = st.lists(
    st.tuples(st.sampled_from(["schedule", "post", "post_at", "arm",
                               "cancel", "disarm"]),
              st.integers(0, 3), st.integers(0, 40)),
    min_size=1, max_size=60)


@given(_OPS, st.lists(st.tuples(st.integers(0, 40), _OPS), max_size=4))
@settings(max_examples=200, deadline=None)
def test_interleaved_operations_fire_in_time_seq_order(setup_ops, later_ops):
    """Any interleaving of schedule/post/cancel/Timer.arm_at — before the run
    and from callbacks during it — fires exactly the surviving events, sorted
    by (time, scheduling order)."""
    engine = Engine()
    fired = []
    expected = {}  # tag -> (time, order of the scheduling call)
    handles = []   # (tag, EventHandle)
    timers = [Timer(engine, lambda k=k: fired.append(timer_tags[k]))
              for k in range(4)]
    timer_tags = [None] * 4
    counter = iter(range(10**6))

    def apply(ops):
        for op, which, delay in ops:
            tag = next(counter)
            if op == "schedule":
                handles.append((tag, engine.schedule(delay, fired.append, tag)))
                expected[tag] = (engine.now + delay, tag)
            elif op == "post":
                engine.post(delay, fired.append, tag)
                expected[tag] = (engine.now + delay, tag)
            elif op == "post_at":
                engine.post_at(engine.now + delay, fired.append, tag)
                expected[tag] = (engine.now + delay, tag)
            elif op == "arm":
                if timers[which].armed:
                    del expected[timer_tags[which]]
                timers[which].arm_at(engine.now + delay)
                timer_tags[which] = tag
                expected[tag] = (engine.now + delay, tag)
            elif op == "disarm":
                if timers[which].armed:
                    del expected[timer_tags[which]]
                timers[which].cancel()
            elif handles:
                victim, handle = handles[which % len(handles)]
                if handle.active:
                    del expected[victim]
                handle.cancel()

    apply(setup_ops)
    for delay, ops in later_ops:
        tag = next(counter)
        engine.post(delay, lambda ops=ops, tag=tag: (fired.append(tag),
                                                     apply(ops)))
        expected[tag] = (delay, tag)
    engine.run()
    assert fired == sorted(expected, key=expected.__getitem__)
    assert engine.pending == 0 and engine.tombstones == 0
    assert engine.events_processed == len(fired)
