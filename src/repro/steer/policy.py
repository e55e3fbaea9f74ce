"""The steering stage: which RX queue does a wire packet land on?

Juggler assumes "different RX queues operate independently and have their
private data structures" (§4) and leans on the NIC steering one flow to one
queue.  Real NICs offer more than one way to do that, and the choice is a
*policy*: plain RSS hashing (stateless, stable), Intel Flow Director's
ATR-style per-flow affinity table (stateful — and, per "Why Does Flow
Director Cause Packet Reordering?", capable of manufacturing reordering all
by itself when it migrates a flow between queues), or a pinned static map
(ground truth).  This module defines the interface and the stateless RSS
implementation; :mod:`repro.steer.flow_director` and
:mod:`repro.steer.static` carry the stateful ones.

The cost contract mirrors tracing: when the policy is plain RSS the NIC
indexes its rings by the flow's precomputed hash itself, so the steering
layer costs no call and retains nothing per packet
(``tests/integration/test_layer_budgets.py`` holds that line as a count).  Stateful policies pay only for the state they keep.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional

from repro.net.addr import FiveTuple


class SteeringPolicy(abc.ABC):
    """Maps a flow key to an RX queue index for one NIC.

    A policy instance is **per NIC**: stateful implementations key private
    tables by flow, so sharing one instance across NICs would cross their
    streams.  :meth:`bind` is called exactly once, by the NIC that owns the
    policy, before any packet is steered.

    Two lookup entry points exist on purpose:

    * :meth:`queue_index` is the data path — it may tick samplers, install
      affinity rules, and bump counters;
    * :meth:`current_queue` is a pure probe (tests, introspection,
      ``Nic.queue_for``) — it must not mutate anything.
    """

    #: Short name used by experiment grids and reports.
    name = "abstract"

    def __init__(self) -> None:
        self._n = 1
        self._engine = None
        self.tracer = None
        self._bound = False

    # -- wiring ---------------------------------------------------------------

    def bind(self, num_queues: int, *, engine=None, tracer=None,
             metrics_prefix: Optional[str] = None) -> None:
        """Attach this policy to its NIC's queue set.

        ``engine`` (when present) supplies timestamps for trace events;
        ``tracer``/``metrics_prefix`` let stateful policies register their
        ``steer.*`` gauges.  Binding twice is an error — see the class
        docstring.
        """
        if self._bound:
            raise ValueError(
                f"{type(self).__name__} is already bound to a NIC; "
                "steering policies are per-NIC (build one per NIC)")
        if num_queues < 1:
            raise ValueError(f"need at least one RX queue, got {num_queues}")
        self._bound = True
        self._n = num_queues
        self._engine = engine
        self.tracer = tracer
        if tracer is not None and metrics_prefix is not None:
            self._bind_metrics(tracer, metrics_prefix)

    def _bind_metrics(self, tracer, prefix: str) -> None:
        """Register policy gauges (stateless policies register none)."""

    # -- lookups --------------------------------------------------------------

    @abc.abstractmethod
    def queue_index(self, flow: FiveTuple) -> int:
        """The RX queue this flow's next packet lands on (data path)."""

    def current_queue(self, flow: FiveTuple) -> int:
        """Side-effect-free probe of where ``flow`` is steered right now."""
        return self.queue_index(flow)

    # -- control plane --------------------------------------------------------

    def rebalance(self, migrate_fraction: float = 1.0, *,
                  flush_table: bool = False) -> int:
        """A steering rebalance event (core/affinity churn).

        Stateless policies have nothing to rebalance and return 0; Flow
        Director migrates flows.  Returns how many affinity groups moved.
        """
        return 0

    def counters(self) -> Dict[str, int]:
        """Steering counters for reports (empty for stateless policies)."""
        return {}


class RssSteering(SteeringPolicy):
    """Toeplitz-style receive-side scaling: ``rss_hash(flow) % num_queues``.

    Exactly the demux the NIC model shipped with before the steering layer
    existed — the hash is computed once at :class:`FiveTuple` construction,
    so the per-packet cost is one attribute load and one modulo.  Stateless:
    a flow's queue never changes, so RSS never self-inflicts reordering.
    """

    name = "rss"

    def bind(self, num_queues: int, *, engine=None, tracer=None,
             metrics_prefix: Optional[str] = None) -> None:
        super().bind(num_queues, engine=engine, tracer=tracer,
                     metrics_prefix=metrics_prefix)
        # Fast path, pinned as instance attributes at bind time: the demux
        # runs per wire packet, so it reads the precomputed ``_rss`` slot
        # through a closure with the queue count as a default arg — no
        # ``self`` hops left (the cost contract in the module docstring).
        def queue_index(flow: FiveTuple, _n: int = num_queues) -> int:
            return flow._rss % _n

        self.queue_index = queue_index  # type: ignore[method-assign]
        self.current_queue = queue_index  # type: ignore[method-assign]

    def queue_index(self, flow: FiveTuple) -> int:
        return flow.rss_hash() % self._n

    current_queue = queue_index
