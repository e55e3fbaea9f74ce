"""The :class:`FaultEngine`: a fault plan expanded onto the sim timeline.

One FaultEngine owns one plan for one simulation run.  Construction builds
nothing visible; the experiment then

* :meth:`wrap`\\ s the packet path it wants perturbed (returns the head of
  an injector chain, or the sink untouched when the plan has no wire
  faults),
* :meth:`bind`\\ s the environment targets — switch/port queues, NIC rx
  queues, TCP receivers — the plan's link/nic/host faults act on, and
* :meth:`start`\\ s the timeline: every activation window becomes two
  fire-and-forget engine events (open, close).

Every window boundary emits a ``fault_injected`` / ``fault_cleared`` trace
event and bumps the ``faults.*`` metrics.  Randomness comes only from
``faults.<name>`` streams derived from the plan seed, so a plan replays
byte-identically and is independent of the experiment's own streams.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from repro.faults.plan import FaultPlan, FaultSpec
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.trace import runtime as trace_runtime

if TYPE_CHECKING:
    from repro.faults.injectors import FaultInjector

#: Sentinel distinguishing "use the installed tracer" from "no tracer".
_INSTALLED = object()


class FaultEngine:
    """Drives one :class:`FaultPlan` against one simulation run."""

    def __init__(
        self,
        engine: Engine,
        plan: FaultPlan,
        *,
        rng: Optional[RngRegistry] = None,
        tracer=_INSTALLED,
    ):
        self._engine = engine
        self.plan = plan
        self._rng = rng if rng is not None else RngRegistry(plan.seed)
        self.tracer = (trace_runtime.current() if tracer is _INSTALLED
                       else tracer)
        #: Wire-injector instances per spec name (one per wrapped path).
        self._injectors: Dict[str, List[FaultInjector]] = {
            s.name: [] for s in plan.wire_faults()
        }
        #: Undo closures for the currently-open environment faults.
        self._reverts: Dict[str, List] = {}
        #: Names of the currently-open windows.
        self._open: set = set()
        # Environment targets (bound by the experiment).
        self.links: List = []
        self.rxqueues: List = []
        self.receivers: List = []
        self.nics: List = []
        #: Window-boundary counters.
        self.injected = 0
        self.cleared = 0
        self._started = False
        if self.tracer is not None:
            metrics = self.tracer.metrics
            self._injected_counter = metrics.counter("faults.injected")
            self._cleared_counter = metrics.counter("faults.cleared")
            metrics.gauge("faults.active", lambda: len(self._open))
            metrics.gauge("faults.dropped", lambda: self.dropped)
            metrics.gauge("faults.duplicated", lambda: self.duplicated)
            metrics.gauge("faults.corrupted", lambda: self.corrupted)
            metrics.gauge("faults.delayed", lambda: self.delayed)
        else:
            self._injected_counter = None
            self._cleared_counter = None

    # -- wiring ---------------------------------------------------------------

    def wrap(self, sink):
        """Put the plan's wire faults in front of ``sink``.

        Returns the head of the injector chain (plan order, first spec
        outermost), or ``sink`` itself when the plan has no wire faults —
        a disabled fault layer adds nothing to the packet path.  May be
        called once per perturbed path; each spec's activations toggle
        every chain it participates in.
        """
        wire = self.plan.wire_faults()
        if not wire:
            return sink
        from repro.faults.injectors import build_injector

        head = sink
        for spec in reversed(wire):
            injector = build_injector(
                spec, head, self._rng.stream(f"faults.{spec.name}"),
                engine=self._engine)
            injector.active = False
            self._injectors[spec.name].append(injector)
            head = injector
        return head

    def bind(self, links: Iterable = (), rxqueues: Iterable = (),
             receivers: Iterable = (), nics: Iterable = ()) -> None:
        """Register environment-fault targets (extends on repeat calls)."""
        self.links.extend(links)
        self.rxqueues.extend(rxqueues)
        self.receivers.extend(receivers)
        self.nics.extend(nics)

    def start(self) -> None:
        """Schedule every activation window on the engine timeline."""
        if self._started:
            raise RuntimeError("FaultEngine.start() called twice")
        self._started = True
        for spec in self.plan.faults:
            for open_ns, close_ns in spec.windows():
                self._engine.post_at(open_ns, self._open_window, spec)
                self._engine.post_at(close_ns, self._close_window, spec)

    # -- window boundaries ----------------------------------------------------

    def _open_window(self, spec: FaultSpec) -> None:
        now = self._engine.now
        if spec.layer == "wire":
            for injector in self._injectors[spec.name]:
                injector.active = True
                injector.on_activate(now)
        else:
            self._reverts[spec.name] = self._apply(spec)
        self._open.add(spec.name)
        self.injected += 1
        if self.tracer is not None:
            self._injected_counter.inc()
            self.tracer.fault_injected(now, spec.name, spec.kind)

    def _close_window(self, spec: FaultSpec) -> None:
        now = self._engine.now
        if spec.layer == "wire":
            for injector in self._injectors[spec.name]:
                injector.active = False
                injector.on_clear(now)
        else:
            for revert in reversed(self._reverts.pop(spec.name, [])):
                revert()
        self._open.discard(spec.name)
        self.cleared += 1
        if self.tracer is not None:
            self._cleared_counter.inc()
            self.tracer.fault_cleared(now, spec.name, spec.kind)

    def _apply(self, spec: FaultSpec) -> List:
        """Perturb the bound environment; return the undo closures."""
        reverts: List = []
        if spec.kind == "queue_saturation":
            cap = int(spec.param("capacity_bytes"))
            for link in self.links:
                reverts.append(_restorer(link, "capacity_bytes",
                                         link.capacity_bytes))
                link.capacity_bytes = cap
        elif spec.kind == "ce_storm":
            threshold = int(spec.param("threshold_bytes"))
            for link in self.links:
                reverts.append(_restorer(link, "ecn_threshold_bytes",
                                         link.ecn_threshold_bytes))
                link.ecn_threshold_bytes = threshold
        elif spec.kind == "ring_overflow":
            ring = int(spec.param("ring_size"))
            for rxq in self.rxqueues:
                reverts.append(_restorer(rxq, "ring_size", rxq.ring_size))
                rxq.ring_size = ring
        elif spec.kind == "pause_poll":
            for rxq in self.rxqueues:
                rxq.stall()
                reverts.append(rxq.unstall)
        elif spec.kind == "steering_churn":
            # A one-shot control-plane event, not a held perturbation: the
            # rebalance happens at window open, nothing reverts at close —
            # the damage (stale rules, cross-queue handoffs) plays out on
            # its own as sampled installs catch up.
            fraction = float(spec.param("migrate_fraction"))
            flush = bool(spec.param("flush_table"))
            for nic in self.nics:
                nic.steering.rebalance(fraction, flush_table=flush)
        elif spec.kind == "receiver_stall":
            for receiver in self.receivers:
                reverts.append(_unstall_receiver(receiver))
        else:  # pragma: no cover - plan validation rejects unknown kinds
            raise ValueError(f"unknown environment fault: {spec.kind}")
        return reverts

    # -- reporting ------------------------------------------------------------

    def _sum(self, field: str) -> int:
        return sum(getattr(i, field)
                   for chain in self._injectors.values() for i in chain)

    @property
    def dropped(self) -> int:
        """Packets destroyed by wire injectors."""
        return self._sum("dropped")

    @property
    def duplicated(self) -> int:
        """Extra copies emitted by wire injectors."""
        return self._sum("duplicated")

    @property
    def corrupted(self) -> int:
        """Packets whose payload was damaged in flight."""
        return self._sum("corrupted")

    @property
    def delayed(self) -> int:
        """Packets held back for extra wire time."""
        return self._sum("delayed")

    def totals(self) -> Dict[str, int]:
        """Counter snapshot for reports and tests."""
        return {
            "injected": self.injected,
            "cleared": self.cleared,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "corrupted": self.corrupted,
            "delayed": self.delayed,
        }


def _restorer(obj, attr: str, value):
    def revert() -> None:
        setattr(obj, attr, value)
    return revert


def _unstall_receiver(receiver):
    """Close the receiver's window now; reopen (and announce) on revert."""
    stolen = receiver.config.rx_buffer
    receiver.occupancy += stolen

    def revert() -> None:
        receiver.occupancy -= stolen
        # The sender saw a zero window; without an unsolicited window
        # update it would wait on a persist timer the simulation does not
        # model.  Real receivers announce the reopened window immediately.
        receiver.announce_window()
    return revert
