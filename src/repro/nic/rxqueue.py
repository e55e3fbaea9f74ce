"""One NIC receive queue: ring buffer + interrupt coalescing + NAPI poll.

The queue drives exactly one GRO engine.  Arrivals land in the ring; the
first arrival into an idle ring arms an interrupt that fires after the
coalescing period; the poll handler then drains the ring in arrival order
through ``gro.receive`` and calls ``gro.poll_complete``.  Between polls, a
high-resolution timer armed from ``gro.next_deadline()`` runs Juggler's
timeout checks (§4.2.2: timeouts are checked "at the end of the polling
interval and in one high resolution timer callback per gro_table").
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.core.base import GroEngine
from repro.net.packet import Packet
from repro.net.pool import release_terminal
from repro.sim.engine import Engine
from repro.sim.timer import Timer
from repro.trace import runtime as trace_runtime


class RxQueue:
    """Ring buffer + NAPI logic for one receive queue."""

    def __init__(
        self,
        engine: Engine,
        gro: GroEngine,
        *,
        coalesce_ns: int = 125_000,
        coalesce_frames: int = 0,
        ring_size: int = 4096,
        name: str = "rxq",
    ):
        self._engine = engine
        self.gro = gro
        self.coalesce_ns = coalesce_ns
        #: Fire the interrupt early once this many frames are pending
        #: (0 disables the frame trigger; real NICs coalesce on
        #: frames-or-time, whichever comes first).
        self.coalesce_frames = coalesce_frames
        #: Ring buffer capacity in packets (the ``ring_overflow`` fault
        #: shrinks it on a built queue).
        self.ring_size = ring_size
        self.name = name
        self._ring: Deque[Packet] = deque()
        self.tracer = trace_runtime.current()
        self._irq = Timer(engine, self._interrupt)
        self._hrtimer = Timer(engine, self._hrtimer_fire)
        #: Ring overflows (packet drops at the host).
        self.dropped = 0
        #: Frames destroyed by checksum verification (corrupted in flight).
        self.checksum_drops = 0
        #: Completed NAPI polls.
        self.polls = 0
        #: Packets handed to GRO.
        self.delivered = 0
        #: Polling suspended (an interrupt storm is stealing the core);
        #: arrivals still land in the ring but nothing services it.  See
        #: :meth:`stall` / :meth:`unstall` (repro.faults ``pause_poll``).
        self.stalled = False

    @property
    def backlog(self) -> int:
        """Packets waiting in the ring."""
        return len(self._ring)

    def enqueue(self, packet: Packet) -> None:
        """DMA one packet into the ring (called by the wire at arrival time)
        and arm, or fast-forward, the coalescing interrupt."""
        ring = self._ring
        if len(ring) >= self.ring_size:
            self.dropped += 1
            release_terminal(packet)
            return
        if packet.corrupt:
            # Checksum verification fails: the frame dies at the NIC, and
            # the stack above never learns it existed.
            self.checksum_drops += 1
            release_terminal(packet)
            return
        packet.received_at = self._engine.now
        ring.append(packet)
        if self.stalled:
            return
        if self._irq.entry is None:
            self._irq.arm_after(self.coalesce_ns)
        if self.coalesce_frames and len(ring) >= self.coalesce_frames:
            # Frame threshold reached: fire now instead of waiting out the
            # time-based coalescing window.
            self._irq.arm_after(0)

    def _interrupt(self) -> None:
        """Coalesced interrupt: enter polling mode and drain the ring."""
        now = self._engine.now
        if self.tracer is not None:
            self.tracer.timer(now, f"{self.name}.irq")
        if self._ring:
            # Hand the whole poll batch down at once (kernel: the driver
            # poll loop runs napi_gro_receive per descriptor in one
            # softirq).
            batch = list(self._ring)
            self._ring.clear()
            self.delivered += len(batch)
            self.gro.receive_batch(batch, now)
        self.gro.poll_complete(now)
        self.polls += 1
        self._rearm_hrtimer()

    def _hrtimer_fire(self) -> None:
        """Per-table high-resolution timer: timeout checks between polls."""
        if self.tracer is not None:
            self.tracer.timer(self._engine.now, f"{self.name}.hrtimer")
        self.gro.check_timeouts(self._engine.now)
        self._rearm_hrtimer()

    def _rearm_hrtimer(self) -> None:
        deadline = self.gro.next_deadline()
        if deadline is None:
            self._hrtimer.cancel()
            return
        self._hrtimer.arm_at(max(deadline, self._engine.now + 1))

    def stall(self) -> None:
        """Suspend NAPI servicing (an interrupt storm owns the core).

        Arrivals keep landing in the ring (and overflow it if the storm
        lasts), but no poll runs and the per-table hrtimer stops — so GRO
        timeouts fire late, exactly the pathology §4.2.2's design has to
        survive.
        """
        self.stalled = True
        self._irq.cancel()
        self._hrtimer.cancel()

    def unstall(self) -> None:
        """Resume servicing; any backlog is polled immediately."""
        self.stalled = False
        if self.backlog:
            self._irq.arm_after(0)
        self._rearm_hrtimer()

    def drain(self) -> None:
        """Force-process everything (experiment teardown)."""
        now = self._engine.now
        if self._ring:
            batch = list(self._ring)
            self._ring.clear()
            self.delivered += len(batch)
            self.gro.receive_batch(batch, now)
        self.gro.flush_all(now)
        self._hrtimer.cancel()
