"""The :class:`Tracer`: typed event emission fanned out to sinks.

The cost contract
-----------------
Components hold ``self.tracer`` which is ``None`` when tracing is disabled.
Every hot-path call site guards with ``if tracer is not None`` *before*
calling an emit helper, so the disabled path costs one attribute load and
one identity test per packet — and allocates nothing.  When a tracer is
present, the typed helpers additionally filter by :class:`EventKind` before
constructing the event object, so even an enabled-but-filtered kind stays
allocation-free.

Timeline epochs
---------------
Experiment sweeps build a fresh :class:`~repro.sim.engine.Engine` per cell,
each restarting simulated time at zero.  One tracer can span the whole
sweep: :meth:`bind_engine` opens a new *epoch*, offsetting subsequent
timestamps past everything already emitted, so per-track timestamps stay
monotonically non-decreasing across cells (a Chrome trace requirement).
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from typing import Dict, Iterable, Optional, Set

from repro.trace.events import (
    CcRecovery,
    CcStateChange,
    EventKind,
    Eviction,
    FaultCleared,
    FaultInjected,
    FlowcutMove,
    FlowcutPin,
    Flush,
    Merge,
    PacketRx,
    PhaseTransition,
    SteerMigration,
    SteerRebalance,
    TcpDelivery,
    TimerFire,
    TraceEvent,
)
from repro.trace.metrics import MetricsRegistry
from repro.trace.sinks import Sink


class Tracer:
    """Fan typed events out to sinks; owns a :class:`MetricsRegistry`."""

    def __init__(
        self,
        sinks: Iterable[Sink] = (),
        *,
        metrics: Optional[MetricsRegistry] = None,
        kinds: Optional[Iterable[EventKind]] = None,
    ):
        self.sinks = list(sinks)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: None traces every kind; otherwise only the listed kinds.
        self.kinds: Optional[Set[EventKind]] = (
            None if kinds is None else set(kinds)
        )
        self.events_emitted = 0
        self.by_kind: TallyCounter = TallyCounter()
        self._ts_offset = 0
        self._max_ts = 0
        self._component_counts: Dict[str, int] = {}

    # -- wiring ---------------------------------------------------------------

    def wants(self, kind: EventKind) -> bool:
        """True when events of ``kind`` should be constructed at all."""
        return self.kinds is None or kind in self.kinds

    def component_index(self, prefix: str) -> int:
        """Sequence number for naming per-component metrics (gro0, gro1...)."""
        n = self._component_counts.get(prefix, 0)
        self._component_counts[prefix] = n + 1
        return n

    def bind_engine(self, engine) -> None:
        """A new simulation engine started under this tracer.

        Opens a new timeline epoch and points the event-loop gauges at the
        live engine.
        """
        self._ts_offset = self._max_ts
        self.metrics.gauge("sim.events_processed",
                           lambda: engine.events_processed)
        self.metrics.gauge("sim.pending_events", lambda: engine.pending)
        self.metrics.gauge("sim.pending_live", lambda: engine.pending_live)
        self.metrics.gauge("sim.timer_tombstones", lambda: engine.tombstones)
        self.metrics.gauge("sim.timer_compactions",
                           lambda: engine.compactions)

    def close(self) -> None:
        """Close every sink."""
        for sink in self.sinks:
            sink.close()

    # -- emission -------------------------------------------------------------

    def _stamp(self, now: int) -> int:
        ts = now + self._ts_offset
        if ts > self._max_ts:
            self._max_ts = ts
        return ts

    def emit(self, event: TraceEvent) -> None:
        """Dispatch an already-constructed event to every sink."""
        self.events_emitted += 1
        self.by_kind[event.kind] += 1
        for sink in self.sinks:
            sink.emit(event)

    def packet_rx(self, now: int, flow, seq: int, end_seq: int,
                  payload_len: int) -> None:
        """One packet entered a GRO receive path."""
        if self.wants(EventKind.PACKET_RX):
            self.emit(PacketRx(self._stamp(now), flow, seq, end_seq,
                               payload_len))

    def merge(self, now: int, flow, seq: int, end_seq: int,
              scanned: int) -> None:
        """One packet merged into an existing OOO-queue run."""
        if self.wants(EventKind.MERGE):
            self.emit(Merge(self._stamp(now), flow, seq, end_seq, scanned))

    def flush(self, now: int, flow, seq: int, end_seq: int, mtus: int,
              reason) -> None:
        """One segment delivered up the stack."""
        if self.wants(EventKind.FLUSH):
            self.emit(Flush(self._stamp(now), flow, seq, end_seq, mtus,
                            reason))

    def phase(self, now: int, flow, old_phase, new_phase) -> None:
        """A flow entry changed lifecycle phase."""
        if self.wants(EventKind.PHASE):
            self.emit(PhaseTransition(self._stamp(now), flow, old_phase,
                                      new_phase))

    def eviction(self, now: int, flow, phase) -> None:
        """A flow was evicted from the gro_table."""
        if self.wants(EventKind.EVICTION):
            self.emit(Eviction(self._stamp(now), flow, phase))

    def timer(self, now: int, source: str) -> None:
        """A NIC-level timer (irq / hrtimer) fired."""
        if self.wants(EventKind.TIMER):
            self.emit(TimerFire(self._stamp(now), source))

    def tcp_delivery(self, now: int, flow, rcv_nxt: int, nbytes: int) -> None:
        """The TCP receiver's in-order watermark advanced."""
        if self.wants(EventKind.TCP_DELIVERY):
            self.emit(TcpDelivery(self._stamp(now), flow, rcv_nxt, nbytes))

    def fault_injected(self, now: int, name: str, fault: str) -> None:
        """A fault-plan window opened (see repro.faults)."""
        if self.wants(EventKind.FAULT_INJECTED):
            self.emit(FaultInjected(self._stamp(now), name, fault))

    def fault_cleared(self, now: int, name: str, fault: str) -> None:
        """A fault-plan window closed; its perturbation was reverted."""
        if self.wants(EventKind.FAULT_CLEARED):
            self.emit(FaultCleared(self._stamp(now), name, fault))

    def steer_migration(self, now: int, flow, old_queue: int,
                        new_queue: int) -> None:
        """A steering rule moved a flow between RX queues."""
        if self.wants(EventKind.STEER_MIGRATION):
            self.emit(SteerMigration(self._stamp(now), flow, old_queue,
                                     new_queue))

    def steer_rebalance(self, now: int, groups_moved: int,
                        flushed: bool) -> None:
        """The steering policy rebalanced its affinity assignment."""
        if self.wants(EventKind.STEER_REBALANCE):
            self.emit(SteerRebalance(self._stamp(now), groups_moved, flushed))

    def flowcut_pin(self, now: int, flow, policy: str, port: int) -> None:
        """A switch pinned a new flowcut/flowlet to an uplink."""
        if self.wants(EventKind.FLOWCUT_PIN):
            self.emit(FlowcutPin(self._stamp(now), flow, policy, port))

    def flowcut_move(self, now: int, flow, policy: str, old_port: int,
                     new_port: int) -> None:
        """A drained flowcut/flowlet re-pinned to a different uplink."""
        if self.wants(EventKind.FLOWCUT_MOVE):
            self.emit(FlowcutMove(self._stamp(now), flow, policy, old_port,
                                  new_port))

    def cc_state(self, now: int, flow, algo: str, old_state: str,
                 new_state: str, cwnd: int,
                 pacing_gbps: Optional[float]) -> None:
        """A congestion-control policy's state machine transitioned."""
        if self.wants(EventKind.CC_STATE):
            self.emit(CcStateChange(self._stamp(now), flow, algo, old_state,
                                    new_state, cwnd, pacing_gbps))

    def cc_recovery(self, now: int, flow, algo: str, trigger: str,
                    cwnd: int, ssthresh: int) -> None:
        """The sender entered loss recovery (fast retransmit or RTO)."""
        if self.wants(EventKind.CC_RECOVERY):
            self.emit(CcRecovery(self._stamp(now), flow, algo, trigger,
                                 cwnd, ssthresh))
