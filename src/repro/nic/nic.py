"""A multi-queue NIC: pluggable steering onto per-core GRO contexts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.base import DeliverFn, GroEngine
from repro.net.packet import Packet
from repro.nic.rxqueue import RxQueue
from repro.sim.engine import Engine
from repro.steer.coreset import CoreSet
from repro.steer.policy import RssSteering, SteeringPolicy
from repro.trace import runtime as trace_runtime

#: Builds one GRO engine per RX queue; receives that queue's deliver fn.
GroFactory = Callable[[DeliverFn], GroEngine]


@dataclass(frozen=True)
class NicConfig:
    """Receive-side NIC parameters."""

    #: Number of RX queues ("NICs today hash one flow to one receive
    #: queue", §5.3.1 — more queues spread flows, not packets).
    num_queues: int = 1
    #: Interrupt coalescing period in ns (125 µs in the paper's testbed).
    coalesce_ns: int = 125_000
    #: Frame-count trigger: interrupt fires early once this many frames are
    #: pending (0 = time-only coalescing).  At line rate a frames trigger
    #: sets the NAPI poll cadence, hence the batching floor of Figure 12.
    coalesce_frames: int = 0
    #: Ring buffer capacity per queue, in packets.
    ring_size: int = 4096

    def __post_init__(self) -> None:
        if self.num_queues < 1:
            raise ValueError(f"need at least one RX queue, got {self.num_queues}")
        if self.coalesce_ns < 0:
            raise ValueError(f"coalesce_ns must be >= 0, got {self.coalesce_ns}")
        if self.ring_size < 1:
            raise ValueError(f"ring_size must be >= 1, got {self.ring_size}")


class Nic:
    """Steering front-end over ``num_queues`` independent receive cores.

    The demux decision is delegated to a :class:`SteeringPolicy` — plain
    RSS by default, which preserves the historical behaviour bit-for-bit:
    all packets of one five-tuple land on one queue, so per-queue GRO state
    never sees cross-queue interleaving (§4: "different RX queues operate
    independently and have their private data structures").  Stateful
    policies (Flow Director) may *break* that invariant mid-flow, which is
    precisely the pathology ``experiments/fdir_reordering`` measures.
    """

    #: Entry point from the wire, pinned per instance by ``__init__``.
    receive: Callable[[Packet], None]

    def __init__(
        self,
        engine: Engine,
        deliver: DeliverFn,
        gro_factory: GroFactory,
        config: Optional[NicConfig] = None,
        name: str = "nic",
        *,
        steering: Optional[SteeringPolicy] = None,
    ):
        self.config = config if config is not None else NicConfig()
        self.name = name
        self.tracer = trace_runtime.current()
        prefix = None
        if self.tracer is not None:
            prefix = f"steer{self.tracer.component_index('steer')}"
        self.cores = CoreSet(
            engine,
            deliver,
            gro_factory,
            num_cores=self.config.num_queues,
            coalesce_ns=self.config.coalesce_ns,
            coalesce_frames=self.config.coalesce_frames,
            ring_size=self.config.ring_size,
            name=name,
            tracer=self.tracer,
            metrics_prefix=prefix,
        )
        self.queues: List[RxQueue] = self.cores.queues
        self.steering = steering if steering is not None else RssSteering()
        self.steering.bind(self.config.num_queues, engine=engine,
                           tracer=self.tracer, metrics_prefix=prefix)
        # Per-wire-packet path, pinned as an instance attribute.  Stateless
        # RSS steers a flow to ``_rss % n``: one queue's ring *is* the
        # receive path, several are indexed directly; stateful policies
        # keep their demux, captured once in a closure.
        enqueues = [queue.enqueue for queue in self.queues]
        n = len(enqueues)
        if type(self.steering) is RssSteering and n == 1:
            self.receive = enqueues[0]
        elif type(self.steering) is RssSteering:
            def receive(packet: Packet) -> None:
                enqueues[packet.flow._rss % n](packet)

            self.receive = receive
        else:
            steer = self.steering.queue_index

            def receive(packet: Packet) -> None:
                enqueues[steer(packet.flow)](packet)

            self.receive = receive

    def queue_for(self, packet: Packet) -> RxQueue:
        """The RX queue this packet's flow is steered to (pure probe)."""
        return self.queues[self.steering.current_queue(packet.flow)]

    @property
    def dropped(self) -> int:
        """Total ring-overflow drops across queues."""
        return sum(q.dropped for q in self.queues)

    def drain(self) -> None:
        """Teardown: force-process all rings and flush all GRO state.

        When tracing is on, also reconciles final per-queue poll/drop
        counters into the metrics registry — multi-queue runs previously
        reported only the NIC-level ``dropped`` aggregate, losing which
        queue overflowed.
        """
        for queue in self.queues:
            queue.drain()
        if self.tracer is not None:
            self.cores.reconcile(self.tracer.metrics)
