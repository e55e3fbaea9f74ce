"""Time units for the simulator.

All simulation timestamps and durations are integer nanoseconds, mirroring
the kernel's use of ``ktime_t`` (nanoseconds since epoch) for Juggler's
``flush_timestamp``.  Using integers keeps event ordering exact and the
simulation reproducible across platforms.
"""

#: One nanosecond (the base unit).
NS = 1

#: Nanoseconds per microsecond.
US = 1_000

#: Nanoseconds per millisecond.
MS = 1_000_000

#: Nanoseconds per second.
SEC = 1_000_000_000

