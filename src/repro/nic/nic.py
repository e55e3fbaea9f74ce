"""A multi-queue NIC: pluggable steering onto per-core GRO contexts.

Each RX queue owns its own GRO engine with a private ``gro_table`` shard —
the §4 independence invariant ("different RX queues operate independently
and have their private data structures") made structural.

When a tracer is installed, each shard registers ``steer<i>.shard<j>.*``
gauges (occupancy, eviction pressure, deliveries, drops), and
:meth:`Nic.drain` writes the final per-queue poll/drop counters, so
multi-queue runs account every ring-overflow drop to the queue that
dropped it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.base import DeliverFn, GroEngine
from repro.net.packet import Packet
from repro.nic.rxqueue import RxQueue
from repro.sim.engine import Engine
from repro.steer.policy import RssSteering, SteeringPolicy
from repro.trace import runtime as trace_runtime

#: Builds one GRO engine per RX queue; receives that queue's deliver fn.
GroFactory = Callable[[DeliverFn], GroEngine]

#: Per-queue counters :meth:`Nic.drain` reconciles into the metrics registry.
RECONCILED_FIELDS = ("polls", "delivered", "dropped", "checksum_drops")


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

    def __post_init__(self) -> None:
        if self.num_queues < 1:
            raise ValueError(f"need at least one RX queue, got {self.num_queues}")
        if self.coalesce_ns < 0:
            raise ValueError(f"coalesce_ns must be >= 0, got {self.coalesce_ns}")
        if self.coalesce_frames < 0:
            # RxQueue.enqueue would fire the interrupt on every arrival.
            raise ValueError(
                f"coalesce_frames must be >= 0, got {self.coalesce_frames}")


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
        self.config = config = config if config is not None else NicConfig()
        self.name = name
        self.tracer = trace_runtime.current()
        prefix = None
        if self.tracer is not None:
            prefix = f"steer{self.tracer.component_index('steer')}"
        #: One queue per receive core; the steering policy indexes into this.
        self.queues: List[RxQueue] = [
            RxQueue(engine, gro_factory(deliver),
                    coalesce_ns=config.coalesce_ns,
                    coalesce_frames=config.coalesce_frames,
                    name=f"{name}.rxq{i}")
            for i in range(config.num_queues)]
        if prefix is not None:
            self._bind_shard_metrics(self.tracer.metrics, prefix)
        self.steering = steering if steering is not None else RssSteering()
        self.steering.bind(config.num_queues, engine=engine,
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

    def _bind_shard_metrics(self, metrics, prefix: str) -> None:
        for j, queue in enumerate(self.queues):
            shard = f"{prefix}.shard{j}"
            metrics.gauge(f"{shard}.occupancy",
                          lambda q=queue: len(getattr(q.gro, "table", ())))
            metrics.gauge(f"{shard}.evictions",
                          lambda q=queue: q.gro.stats.total_evictions)
            metrics.gauge(f"{shard}.delivered", lambda q=queue: q.delivered)
            metrics.gauge(f"{shard}.dropped", lambda q=queue: q.dropped)

    def queue_for(self, packet: Packet) -> RxQueue:
        """The RX queue this packet's flow is steered to (pure probe)."""
        return self.queues[self.steering.current_queue(packet.flow)]

    @property
    def dropped(self) -> int:
        """Total ring-overflow drops across queues."""
        return sum(q.dropped for q in self.queues)

    def imbalance(self) -> float:
        """Max/mean delivered-packets ratio across queues (1.0 = perfect).

        The steering-quality headline: RSS should sit near 1, a churning
        Flow Director drifts as migrations pile flows onto fewer queues.
        """
        delivered = [queue.delivered for queue in self.queues]
        total = sum(delivered)
        if total == 0:
            return 1.0
        mean = total / len(delivered)
        return max(delivered) / mean

    def drain(self) -> None:
        """Teardown: force-process all rings and flush all GRO state.

        When tracing is on, also raises each ``<name>.rxq<j>.<field>``
        counter to queue *j*'s current total — so draining again after more
        traffic tops them up, and draining twice in a row changes nothing.
        """
        for queue in self.queues:
            queue.drain()
        if self.tracer is None:
            return
        metrics = self.tracer.metrics
        for queue in self.queues:
            for field in RECONCILED_FIELDS:
                counter = metrics.counter(f"{queue.name}.{field}")
                value = getattr(queue, field)
                if value > counter.value:
                    counter.inc(value - counter.value)
