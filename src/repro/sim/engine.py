"""The discrete-event engine.

A single :class:`Engine` instance owns simulated time for one experiment.
Components hold a reference to the engine, schedule callbacks on it, and read
``engine.now`` for the current time — exactly the role ``ktime_get()`` and
timer wheels play for the kernel GRO path the paper modifies.  ``now`` is a
plain attribute (hundreds of thousands of reads per cell) that only the run
loop writes: read-only for everyone else.

Internals (the hot loop of every experiment)
--------------------------------------------
Pending events are ``[time, seq, callback, args]`` lists in one ``heapq``.
``seq`` is unique, so list comparison is decided in C on ``(time, seq)`` and
never reaches the callback: fire order is the total order by ``(time, seq)``,
i.e. by deadline, then by scheduling order.  Deadlines must be integer
nanoseconds — a float would order correctly here but round differently
across platforms (``tests/sim/test_int_deadlines.py`` holds the callers to
that, on the five public scheduling calls: ``post``/``post_at`` push their
entry themselves, the rest go through ``_schedule_event``).

Cancellation is lazy: ``entry[2] = None`` leaves a tombstone that is dropped
when it reaches the front.  That makes ``Timer`` re-arm churn O(1), but
sustained churn against far deadlines would grow residency without bound, so
once tombstones outnumber ``max(live, COMPACT_FLOOR)`` a compaction pass
rebuilds the heap from the live entries.  A fired entry is marked the same
way, which is what makes a late ``cancel()`` a no-op.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import inf
from typing import Any, Callable, Optional

from repro.sim.event import EventHandle
from repro.trace import runtime as trace_runtime

#: Compaction floor: never bother compacting fewer tombstones than this.
COMPACT_FLOOR = 256


class SimulationError(RuntimeError):
    """Raised on engine misuse (scheduling in the past, etc.)."""


class Engine:
    """A deterministic discrete-event simulation loop.

    Example
    -------
    >>> eng = Engine()
    >>> fired = []
    >>> _ = eng.schedule(100, fired.append, 100)
    >>> _ = eng.schedule(50, fired.append, 50)
    >>> eng.run()
    >>> fired
    [50, 100]
    """

    def __init__(self) -> None:
        #: Current simulation time, ns.  Only the run loop writes it.
        self.now = 0
        #: Min-heap of ``[time, seq, callback, args]``; ``callback`` is None
        #: once the entry is cancelled or fired.
        self._heap: list[list] = []
        self._seq = 0
        self._running = False
        self._events_processed = 0
        self._tombstones = 0
        self._compactions = 0
        tracer = trace_runtime.current()
        if tracer is not None:
            # A new engine restarts simulated time: open a new trace epoch
            # and expose the event-loop totals as gauges.
            tracer.bind_engine(self)

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far (cancelled ones excluded)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Resident events: live **plus** cancelled tombstones not yet
        discarded.  Use :attr:`pending_live` for the exact live count."""
        return len(self._heap)

    @property
    def pending_live(self) -> int:
        """Events that will actually fire (cancelled ones excluded)."""
        return len(self._heap) - self._tombstones

    @property
    def tombstones(self) -> int:
        """Cancelled events still resident (discarded lazily or by
        compaction); bounded at ``max(pending_live, COMPACT_FLOOR)``."""
        return self._tombstones

    @property
    def compactions(self) -> int:
        """Tombstone-compaction passes run so far."""
        return self._compactions

    @property
    def events_allocated(self) -> int:
        """Heap entries allocated: one per scheduled event."""
        return self._seq

    # -- scheduling -----------------------------------------------------------

    def schedule(self, delay: int, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now.

        ``delay`` must be non-negative; a zero delay fires after all events
        already scheduled for the current instant.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}ns in the past")
        return EventHandle(
            self, self._schedule_event(self.now + delay, callback, args))

    def schedule_at(self, time: int, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``."""
        return EventHandle(self, self._schedule_event(time, callback, args))

    def post(self, delay: int, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no cancellation handle.

        The hot path for components that never cancel (link transmit
        completions, source emission loops) — skips the handle allocation.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}ns in the past")
        heappush(self._heap, [self.now + delay, self._seq, callback, args])
        self._seq += 1

    def post_at(self, time: int, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at`: no cancellation handle."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}")
        heappush(self._heap, [time, self._seq, callback, args])
        self._seq += 1

    def _schedule_event(self, time: int, callback, args: tuple) -> list:
        """Push one heap entry and return it: the paths that keep a handle
        on it (``schedule``, ``schedule_at``, ``Timer.arm_at``)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        entry = [time, self._seq, callback, args]
        self._seq += 1
        heappush(self._heap, entry)
        return entry

    # -- cancellation ---------------------------------------------------------

    def _cancel(self, entry: list) -> None:
        """Turn a resident entry into a tombstone (no-op once fired or
        cancelled)."""
        if entry[2] is None:
            return
        entry[2] = None
        entry[3] = ()
        self._tombstones += 1
        if (self._tombstones > COMPACT_FLOOR
                and 2 * self._tombstones > len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap from its live entries.

        In place, because a running loop holds the list; ``heapify`` over the
        same live ``(time, seq)`` keys cannot change the fire order.
        """
        self._compactions += 1
        self._heap[:] = [e for e in self._heap if e[2] is not None]
        heapify(self._heap)
        self._tombstones = 0

    # -- the run loop ---------------------------------------------------------

    def _loop(self, until, budget: int) -> int:
        """Fire events with timestamp <= ``until`` until ``budget`` callbacks
        ran (a budget below 1 never runs out); returns how many fired."""
        if self._running:
            raise SimulationError("engine is already running (re-entrant run)")
        self._running = True
        heap = self._heap
        pop = heappop
        start = processed = self._events_processed
        stop_at = start + budget
        try:
            while heap and heap[0][0] <= until:
                entry = pop(heap)
                callback = entry[2]
                if callback is None:
                    self._tombstones -= 1
                    continue
                entry[2] = None  # one-shot; makes a cancel from here on a no-op
                self.now = entry[0]
                callback(*entry[3])
                processed += 1
                self._events_processed = processed
                if processed == stop_at:
                    break
        finally:
            self._running = False
        return processed - start

    def step(self) -> bool:
        """Run the single next event.  Returns False when none are pending."""
        return self._loop(inf, 1) == 1

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until every live event fired, or until ``max_events``
        callbacks ran (0 runs none; a negative budget is an error)."""
        if max_events is None:
            self._loop(inf, -1)
        elif max_events > 0:
            self._loop(inf, max_events)
        elif max_events < 0:
            raise ValueError(f"max_events must be >= 0, got {max_events}")

    def run_until(self, time: int) -> None:
        """Run all events with timestamp <= ``time``, then advance now to ``time``.

        Components scheduled past ``time`` stay pending, so a later
        ``run_until`` continues the same experiment.
        """
        if time < self.now:
            raise SimulationError(f"run_until({time}) is before now={self.now}")
        self._loop(time, -1)
        self.now = time
