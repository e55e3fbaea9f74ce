"""Common interface and plumbing for all GRO engine variants.

An engine is driven exactly like the kernel GRO path: the NAPI layer hands
each polling cycle's wire packets to :meth:`receive_batch` and calls
:meth:`poll_complete` when the cycle ends; a per-table high-resolution timer
calls :meth:`check_timeouts` between cycles.  Merged segments leave through
the ``deliver`` callback, which in the full simulation is the TCP receiver.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.core.flush import FlushReason
from repro.core.stats import GroStats
from repro.net.packet import Packet
from repro.net.pool import PacketPool
from repro.net.segment import Segment
from repro.trace import runtime as trace_runtime

if TYPE_CHECKING:
    from repro.trace.tracer import Tracer

DeliverFn = Callable[[Segment], None]


class GroEngine(abc.ABC):
    """Abstract GRO engine: packets in, merged segments out."""

    def __init__(self, deliver: DeliverFn):
        self.deliver = deliver
        self.stats = GroStats()
        #: None = tracing disabled; hot paths guard on this before emitting.
        self.tracer: Optional[Tracer] = trace_runtime.current()
        if self.tracer is not None:
            index = self.tracer.component_index("gro")
            self.stats.bind(self.tracer.metrics, prefix=f"gro{index}")
        self._rehydrate_pool: Optional[PacketPool] = None

    def rehydrate_pool(self) -> PacketPool:
        """This engine's lazily-built packet pool.

        Nothing in ``src/`` draws from it; ``benchmarks/e2e/metrics.py``
        reads it for ``net.pool_hit_ratio``, so the accessor stays.
        """
        pool = self._rehydrate_pool
        if pool is None:
            pool = self._rehydrate_pool = PacketPool()
        return pool

    def attach_tracer(self, tracer: Optional[Tracer]) -> None:
        """Enable (or disable, with None) tracing on a built engine."""
        self.tracer = tracer

    def receive(self, packet: Packet, now: int) -> None:
        """Process one packet arriving at time ``now``: a poll of one."""
        self.receive_batch([packet], now)

    @abc.abstractmethod
    def receive_batch(self, packets: List[Packet], now: int) -> None:
        """Process one NAPI poll's worth of packets, all at time ``now``.

        The NAPI layer hands the whole poll batch down at once (the kernel
        equivalent: the driver's poll loop calling ``napi_gro_receive`` per
        descriptor inside one softirq); each engine's per-packet body lives
        here.
        """

    @abc.abstractmethod
    def poll_complete(self, now: int) -> None:
        """NAPI polling cycle finished; run end-of-poll housekeeping."""

    def check_timeouts(self, now: int) -> None:
        """High-resolution-timer callback; default engines have no timers."""

    def next_deadline(self) -> Optional[int]:
        """Earliest absolute time a timeout could fire, or None."""
        return None

    @abc.abstractmethod
    def flush_all(self, now: int) -> None:
        """Drain every buffered packet (experiment teardown)."""

    # -- shared delivery plumbing -------------------------------------------

    def _deliver_segment(self, segment: Segment, reason: FlushReason, now: int) -> None:
        """Push one merged segment up the stack, with accounting."""
        segment.flushed_at = now
        self.stats.record_delivery(
            segment.flow, segment.seq, segment.end_seq, segment.mtus, reason
        )
        tracer = self.tracer
        if tracer is not None:
            tracer.flush(now, segment.flow, segment.seq, segment.end_seq,
                         segment.mtus, reason)
        self.deliver(segment)

    def _deliver_packet(self, packet: Packet, reason: FlushReason, now: int) -> None:
        """Push one unmerged packet up as a single-MTU segment."""
        self._deliver_segment(Segment([packet]), reason, now)

    def _passthrough(self, packet: Packet, now: int) -> None:
        """Bypass batching entirely (pure ACKs and other unbatchables)."""
        self.stats.passthrough_packets += 1
        segment = Segment([packet])
        segment.flushed_at = now
        self.deliver(segment)
