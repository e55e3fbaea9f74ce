"""Typed trace events — the observable vocabulary of the stack.

Each event class is a frozen, slotted dataclass: cheap to construct when
tracing is on, and never constructed at all when it is off (hot paths guard
with ``if tracer is not None`` before building one).  Events carry whatever
domain objects the emitter has in hand (``FiveTuple`` keys, ``FlushReason``
and ``Phase`` enums); :meth:`TraceEvent.to_dict` flattens them to plain JSON
types for the serialising sinks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Any, ClassVar, Optional

from repro.net.addr import FiveTuple


class EventKind(enum.Enum):
    """The event catalog (see docs/observability.md)."""

    #: A wire packet entered a GRO engine's receive path.
    PACKET_RX = "packet_rx"
    #: A packet merged into an existing OOO-queue run.
    MERGE = "merge"
    #: A segment left the GRO layer, tagged with its Table 2 reason.
    FLUSH = "flush"
    #: A flow entry moved between lifecycle phases (Figure 5).
    PHASE = "phase"
    #: A flow was evicted from the gro_table (§4.3).
    EVICTION = "eviction"
    #: A timer fired: interrupt coalescing or the per-table hrtimer.
    TIMER = "timer"
    #: The TCP receiver's in-order watermark (rcv_nxt) advanced.
    TCP_DELIVERY = "tcp_delivery"
    #: A fault-plan window opened (see repro.faults).
    FAULT_INJECTED = "fault_injected"
    #: A fault-plan window closed; the perturbation was reverted.
    FAULT_CLEARED = "fault_cleared"
    #: A steering rule moved a flow between RX queues (see repro.steer).
    STEER_MIGRATION = "steer_migration"
    #: The steering policy rebalanced its affinity assignment.
    STEER_REBALANCE = "steer_rebalance"
    #: A congestion-control policy changed state (see repro.cc).
    CC_STATE = "cc_state"
    #: The sender entered loss recovery (fast retransmit or RTO).
    CC_RECOVERY = "cc_recovery"
    #: A switch pinned a new flowcut/flowlet to an uplink (repro.fabric).
    FLOWCUT_PIN = "flowcut_pin"
    #: A drained flowcut/flowlet re-pinned to a different uplink.
    FLOWCUT_MOVE = "flowcut_move"


def _plain(value: Any) -> Any:
    """Flatten a field value to a JSON-serialisable type."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (FiveTuple, tuple)):  # flow keys, option tuples
        return str(value)
    return value


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """Base event: a kind, a timestamp, and (usually) a flow."""

    kind: ClassVar[EventKind]

    #: Nanosecond timestamp (simulation time, epoch-offset by the tracer).
    ts: int

    def to_dict(self) -> dict:
        """A plain dict for JSON sinks; enums/tuples become strings."""
        d: dict = {"event": self.kind.value}
        for f in fields(self):
            d[f.name] = _plain(getattr(self, f.name))
        return d


@dataclass(frozen=True, slots=True)
class PacketRx(TraceEvent):
    """One packet entered ``receive`` (data and pure-ACK alike)."""

    kind: ClassVar[EventKind] = EventKind.PACKET_RX

    flow: Any
    seq: int
    end_seq: int
    payload_len: int


@dataclass(frozen=True, slots=True)
class Merge(TraceEvent):
    """One packet merged into an existing OOO-queue run."""

    kind: ClassVar[EventKind] = EventKind.MERGE

    flow: Any
    seq: int
    end_seq: int
    #: Queue nodes examined to find the insert position.
    scanned: int


@dataclass(frozen=True, slots=True)
class Flush(TraceEvent):
    """One segment delivered up the stack."""

    kind: ClassVar[EventKind] = EventKind.FLUSH

    flow: Any
    seq: int
    end_seq: int
    mtus: int
    #: A :class:`~repro.core.flush.FlushReason` (stored as given).
    reason: Any


@dataclass(frozen=True, slots=True)
class PhaseTransition(TraceEvent):
    """A flow entry moved between Figure 5 phases."""

    kind: ClassVar[EventKind] = EventKind.PHASE

    flow: Any
    old_phase: Any
    new_phase: Any


@dataclass(frozen=True, slots=True)
class Eviction(TraceEvent):
    """A flow was evicted; ``phase`` is the list the victim came from."""

    kind: ClassVar[EventKind] = EventKind.EVICTION

    flow: Any
    phase: Any


@dataclass(frozen=True, slots=True)
class TimerFire(TraceEvent):
    """A NIC-level timer ran: ``source`` names it (e.g. ``rxq.hrtimer``)."""

    kind: ClassVar[EventKind] = EventKind.TIMER

    source: str
    flow: Optional[Any] = None


@dataclass(frozen=True, slots=True)
class TcpDelivery(TraceEvent):
    """The TCP receiver absorbed in-order bytes; ``rcv_nxt`` advanced."""

    kind: ClassVar[EventKind] = EventKind.TCP_DELIVERY

    flow: Any
    rcv_nxt: int
    nbytes: int


@dataclass(frozen=True, slots=True)
class FaultInjected(TraceEvent):
    """A fault window opened: ``name`` identifies the plan entry."""

    kind: ClassVar[EventKind] = EventKind.FAULT_INJECTED

    name: str
    fault: str


@dataclass(frozen=True, slots=True)
class FaultCleared(TraceEvent):
    """A fault window closed and its perturbation was reverted."""

    kind: ClassVar[EventKind] = EventKind.FAULT_CLEARED

    name: str
    fault: str


@dataclass(frozen=True, slots=True)
class SteerMigration(TraceEvent):
    """A steering rule moved ``flow`` from ``old_queue`` to ``new_queue``.

    In-flight packets of the flow may now land on both queues — the
    self-inflicted reordering window (see repro.steer.flow_director).
    """

    kind: ClassVar[EventKind] = EventKind.STEER_MIGRATION

    flow: Any
    old_queue: int
    new_queue: int


@dataclass(frozen=True, slots=True)
class SteerRebalance(TraceEvent):
    """The steering policy re-assigned ``groups_moved`` affinity groups."""

    kind: ClassVar[EventKind] = EventKind.STEER_REBALANCE

    groups_moved: int
    flushed: bool


@dataclass(frozen=True, slots=True)
class FlowcutPin(TraceEvent):
    """A switch created fresh path state for ``flow`` on uplink ``port``.

    ``policy`` names the granularity that pinned it (``flowcut`` or
    ``flowlet``) so the two arms of the fabric comparison share one event
    vocabulary (see docs/fabric.md).
    """

    kind: ClassVar[EventKind] = EventKind.FLOWCUT_PIN

    flow: Any
    policy: str
    port: int


@dataclass(frozen=True, slots=True)
class FlowcutMove(TraceEvent):
    """A drained flowcut/flowlet of ``flow`` changed uplink.

    For flowcut switching this happens only once no packet of the previous
    flowcut is still in the divergent path segment, so the move cannot
    reorder; for flowlet switching the gap heuristic makes it merely
    *unlikely* to reorder — the difference the fabric sweep measures.
    """

    kind: ClassVar[EventKind] = EventKind.FLOWCUT_MOVE

    flow: Any
    policy: str
    old_port: int
    new_port: int


@dataclass(frozen=True, slots=True)
class CcStateChange(TraceEvent):
    """A congestion-control policy's state machine transitioned.

    Emitted by policies with real state machines (BBR's startup → drain →
    probe_bw → probe_rtt); window-based policies transition between
    slow_start and cong_avoid implicitly and stay silent.
    """

    kind: ClassVar[EventKind] = EventKind.CC_STATE

    flow: Any
    algo: str
    old_state: str
    new_state: str
    cwnd: int
    pacing_gbps: Optional[float]


@dataclass(frozen=True, slots=True)
class CcRecovery(TraceEvent):
    """The sender entered recovery; ``trigger`` is fast_retransmit or rto.

    ``cwnd``/``ssthresh`` are the *post-reaction* values — what the policy
    answered to the loss signal (for BBR, deliberately unmoved)."""

    kind: ClassVar[EventKind] = EventKind.CC_RECOVERY

    flow: Any
    algo: str
    trigger: str
    cwnd: int
    ssthresh: int
