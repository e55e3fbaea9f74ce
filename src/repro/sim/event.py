"""Cancellation handle for events scheduled on the engine."""

from __future__ import annotations


class EventHandle:
    """Cancellation handle returned by :meth:`Engine.schedule`.

    Wraps the engine's ``[time, seq, callback, args]`` heap entry, whose
    callback slot is None once the event fired or was cancelled.
    Cancellation is lazy: the entry stays in the heap and is skipped when it
    reaches the front.  This is O(1) and matches how kernel timers behave
    from the caller's perspective; the engine's compaction pass bounds how
    many such tombstones accumulate.
    """

    __slots__ = ("_engine", "_entry")

    def __init__(self, engine, entry: list):
        self._engine = engine
        self._entry = entry

    @property
    def time(self) -> int:
        """The simulation time this event is (or was) scheduled for."""
        return self._entry[0]

    @property
    def active(self) -> bool:
        """True while the event is still pending (not cancelled, not fired)."""
        return self._entry[2] is not None

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent, and a no-op once the
        event fired."""
        self._engine._cancel(self._entry)
