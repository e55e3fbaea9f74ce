"""Structured tracing & telemetry for the whole stack.

The pieces (see docs/observability.md for the full catalog):

* :class:`Tracer` — typed, zero-cost-when-disabled event emission (packet
  RX, merge, flush + reason, phase transition, eviction, timer fire, TCP
  delivery), fanned out to pluggable sinks.
* :class:`MetricsRegistry` — counters / gauges / histograms / timeseries
  that components register into.
* Sinks — :class:`RingBufferSink` (tests), :class:`JsonlSink` (archives),
  :class:`ChromeTraceSink` (open any run in Perfetto / chrome://tracing
  with one track per flow), :class:`CallbackSink` (live narration).
* :mod:`repro.trace.runtime` — process-wide installation, which is how the
  ``juggler-repro trace`` subcommand turns tracing on for any experiment
  without rewiring it.

This package depends on nothing else in ``repro`` — the core stays a pure
algorithm, and tracing stays importable from every layer.  (The one
exception is the leaf submodule :mod:`repro.trace.groundtruth`, the exact
reordering oracle used to grade the fabric detector; it reuses the
harness's RFC 4737 metrics and is therefore imported explicitly, never
from this ``__init__``.)
"""

from repro.trace.events import (
    CcRecovery,
    CcStateChange,
    EventKind,
    Eviction,
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
from repro.trace.metrics import (
    Counter,
    Gauge,
    HistogramMetric,
    MetricsRegistry,
    Timeseries,
)
from repro.trace.sinks import (
    CallbackSink,
    ChromeTraceSink,
    JsonlSink,
    RingBufferSink,
    Sink,
    read_jsonl,
)
from repro.trace.tracer import Tracer
from repro.trace import runtime

__all__ = [
    "EventKind",
    "TraceEvent",
    "PacketRx",
    "Merge",
    "Flush",
    "PhaseTransition",
    "Eviction",
    "TimerFire",
    "TcpDelivery",
    "SteerMigration",
    "SteerRebalance",
    "CcStateChange",
    "CcRecovery",
    "FlowcutPin",
    "FlowcutMove",
    "Counter",
    "Gauge",
    "HistogramMetric",
    "MetricsRegistry",
    "Timeseries",
    "Sink",
    "CallbackSink",
    "RingBufferSink",
    "JsonlSink",
    "ChromeTraceSink",
    "read_jsonl",
    "Tracer",
    "runtime",
]
