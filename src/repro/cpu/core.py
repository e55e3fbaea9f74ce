"""A CPU core as a saturating work-conserving server.

When the application core cannot keep up with per-segment work (the vanilla
kernel under reordering), the socket buffer fills, the advertised window
closes, and the sender throttles — that is how the paper's Figure 9 vanilla
receiver "falls short of reaching 20Gb/s".  :class:`CpuCore` provides that
coupling: work is submitted with a completion callback; completions are
serialised at real-time speed on the simulated clock, so a backlog develops
whenever offered load exceeds one core.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import Engine


class CpuCore:
    """Single-server FIFO queue of work items on the simulation clock."""

    def __init__(self, engine: Engine, name: str = "core"):
        self._engine = engine
        self.name = name
        #: Total nanoseconds of work submitted since construction;
        #: experiments measure utilisation as the difference of two
        #: readings over a window (see ``Cell.measure``).
        # det: allow(float-ns) -- accumulator of fractional modeled work, not an event timestamp; never feeds back into scheduling
        self.busy_ns = 0.0
        self._busy_until = 0

    def submit(
        self,
        work_ns: float,
        callback: Optional[Callable[..., Any]] = None,
        *args: Any,
    ) -> int:
        """Enqueue ``work_ns`` of processing; fire ``callback`` on completion.

        Returns the absolute completion time.  Work is also added to
        :attr:`busy_ns` so utilisation reflects everything submitted.
        """
        if work_ns < 0:
            raise ValueError(f"negative work: {work_ns}")
        self.busy_ns += work_ns
        start = max(self._engine.now, self._busy_until)
        done = start + max(1, round(work_ns))
        self._busy_until = done
        if callback is not None:
            self._engine.schedule_at(done, callback, *args)
        return done
