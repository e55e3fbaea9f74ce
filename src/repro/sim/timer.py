"""A re-armable one-shot timer, modelled on the kernel's hrtimer.

Juggler registers "one high resolution timer callback per gro_table"
(§4.2.2) to check the ``inseq_timeout`` / ``ofo_timeout`` conditions between
polling intervals.  :class:`Timer` provides that abstraction on top of the
event engine: arm it for a deadline, re-arm to move the deadline, cancel it,
and the callback fires at most once per arming.

Re-arming is the engine's highest-churn operation (the RX queue moves its
hrtimer after every poll), so the timer holds its pending heap entry directly
instead of allocating a handle per arm.  Each re-arm leaves one lazily-
cancelled tombstone behind; the engine's compaction keeps those bounded.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import Engine


class Timer:
    """One-shot re-armable timer bound to an engine and a callback."""

    __slots__ = ("_engine", "_callback", "entry")

    def __init__(self, engine: Engine, callback: Callable[[], Any]):
        self._engine = engine
        self._callback = callback
        #: The pending expiry's heap entry; None when disarmed.  Public so a
        #: per-packet caller can test ``timer.entry is None`` without the
        #: :attr:`armed` property call; read-only outside this class.
        self.entry: Optional[list] = None

    @property
    def armed(self) -> bool:
        """True if the timer has a pending expiry."""
        return self.entry is not None

    @property
    def expires_at(self) -> Optional[int]:
        """Absolute expiry time, or None when disarmed."""
        entry = self.entry
        return None if entry is None else entry[0]

    def arm_at(self, time: int) -> None:
        """(Re-)arm the timer for absolute time ``time``."""
        self.cancel()
        self.entry = self._engine._schedule_event(time, self._fire, ())

    def arm_after(self, delay: int) -> None:
        """(Re-)arm the timer ``delay`` ns from now."""
        self.arm_at(self._engine.now + delay)

    def cancel(self) -> None:
        """Disarm the timer if pending.  Idempotent."""
        entry = self.entry
        if entry is not None:
            self.entry = None
            self._engine._cancel(entry)

    def _fire(self) -> None:
        self.entry = None
        self._callback()
