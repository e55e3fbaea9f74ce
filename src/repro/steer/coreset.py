"""Per-core receive contexts: the private state the steering stage feeds.

A :class:`CoreSet` owns one :class:`RxCore` per receive core; each core
owns its own :class:`~repro.nic.rxqueue.RxQueue` and, through it, its own
GRO engine with a private ``gro_table`` shard — the §4 independence
invariant ("different RX queues operate independently and have their
private data structures") made structural.  Nothing in a core's context is
reachable from another core.

When a tracer is installed, each shard registers ``steer.shardN.*`` gauges
(occupancy, eviction pressure, deliveries, drops) into the shared
:class:`~repro.trace.metrics.MetricsRegistry`; :meth:`reconcile` writes the
final per-queue poll/drop counters at teardown so multi-queue runs account
every ring-overflow drop to the queue that dropped it.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.core.base import DeliverFn, GroEngine
from repro.nic.rxqueue import RxQueue
from repro.sim.engine import Engine

#: Fields reconciled per queue into the metrics registry at drain time.
RECONCILED_FIELDS = ("polls", "delivered", "dropped", "checksum_drops")


class RxCore:
    """One receive core: its queue, its GRO shard, nothing shared."""

    __slots__ = ("index", "queue", "name")

    def __init__(self, index: int, queue: RxQueue, name: str):
        self.index = index
        self.queue = queue
        self.name = name

    @property
    def gro(self) -> GroEngine:
        """This core's private GRO engine."""
        return self.queue.gro

    @property
    def occupancy(self) -> int:
        """Flows resident in this shard's ``gro_table`` right now."""
        table = getattr(self.queue.gro, "table", None)
        return len(table) if table is not None else 0

    @property
    def evictions(self) -> int:
        """Flows evicted from this shard under capacity pressure."""
        return self.queue.gro.stats.total_evictions


class CoreSet:
    """The per-core contexts of one NIC, built and indexed together."""

    def __init__(
        self,
        engine: Engine,
        deliver: DeliverFn,
        gro_factory,
        *,
        num_cores: int,
        coalesce_ns: int,
        coalesce_frames: int,
        ring_size: int,
        name: str = "nic",
        tracer=None,
        metrics_prefix: Optional[str] = None,
    ):
        if num_cores < 1:
            raise ValueError(f"need at least one core, got {num_cores}")
        self.name = name
        self.cores: List[RxCore] = []
        for i in range(num_cores):
            queue = RxQueue(
                engine,
                gro_factory(deliver),
                coalesce_ns=coalesce_ns,
                coalesce_frames=coalesce_frames,
                ring_size=ring_size,
                name=f"{name}.rxq{i}",
            )
            self.cores.append(RxCore(i, queue, f"{name}.core{i}"))
        #: The queues in core order — the steering policy indexes into this.
        self.queues: List[RxQueue] = [core.queue for core in self.cores]
        if tracer is not None and metrics_prefix is not None:
            self._bind_metrics(tracer, metrics_prefix)

    def __len__(self) -> int:
        return len(self.cores)

    def __iter__(self) -> Iterator[RxCore]:
        return iter(self.cores)

    def _bind_metrics(self, tracer, prefix: str) -> None:
        metrics = tracer.metrics
        for core in self.cores:
            shard = f"{prefix}.shard{core.index}"
            metrics.gauge(f"{shard}.occupancy",
                          lambda c=core: c.occupancy)
            metrics.gauge(f"{shard}.evictions",
                          lambda c=core: c.evictions)
            metrics.gauge(f"{shard}.delivered",
                          lambda c=core: c.queue.delivered)
            metrics.gauge(f"{shard}.dropped",
                          lambda c=core: c.queue.dropped)

    # -- teardown accounting --------------------------------------------------

    def reconcile(self, metrics) -> None:
        """Write final per-queue counters into ``metrics``.

        Idempotent: counters are raised to each queue's current totals, so
        calling again after more traffic tops them up and calling twice in
        a row changes nothing.  This is what lets a multi-queue run account
        every ring-overflow drop per queue instead of only the NIC-level
        ``dropped`` aggregate.
        """
        for core in self.cores:
            queue = core.queue
            for field in RECONCILED_FIELDS:
                counter = metrics.counter(f"{queue.name}.{field}")
                value = getattr(queue, field)
                if value > counter.value:
                    counter.inc(value - counter.value)

    # -- aggregates -----------------------------------------------------------

    def totals(self) -> dict:
        """Per-coreset sums of the reconciled fields, plus occupancy."""
        out = {field: sum(getattr(c.queue, field) for c in self.cores)
               for field in RECONCILED_FIELDS}
        out["occupancy"] = sum(c.occupancy for c in self.cores)
        out["evictions"] = sum(c.evictions for c in self.cores)
        return out

    def imbalance(self) -> float:
        """Max/mean delivered-packets ratio across cores (1.0 = perfect).

        The steering-quality headline: RSS should sit near 1, a churning
        Flow Director drifts as migrations pile flows onto fewer queues.
        """
        delivered = [core.queue.delivered for core in self.cores]
        total = sum(delivered)
        if total == 0:
            return 1.0
        mean = total / len(delivered)
        return max(delivered) / mean
