"""Structured tracing & telemetry for the whole stack.

The pieces (see docs/observability.md for the full catalog), each imported
from its own module — this ``__init__`` re-exports nothing, so the data
path's ``from repro.trace import runtime`` loads no tracer:

* :class:`~repro.trace.tracer.Tracer` — typed, zero-cost-when-disabled
  event emission (packet RX, merge, flush + reason, phase transition,
  eviction, timer fire, TCP delivery), fanned out to pluggable sinks.
* :class:`~repro.trace.metrics.MetricsRegistry` — counters / gauges /
  histograms / timeseries that components register into.
* :mod:`repro.trace.sinks` — ``RingBufferSink`` (tests), ``JsonlSink``
  (archives; ``read_jsonl`` reads one back), ``ChromeTraceSink`` (open any
  run in Perfetto / chrome://tracing with one track per flow),
  ``CallbackSink`` (live narration).
* :mod:`repro.trace.events` — ``EventKind`` and the typed event classes.
* :mod:`repro.trace.runtime` — process-wide installation, which is how the
  ``juggler-repro trace`` subcommand turns tracing on for any experiment
  without rewiring it.

This package depends on nothing else in ``repro`` — the core stays a pure
algorithm, and tracing stays importable from every layer.  (The one
exception is the leaf submodule :mod:`repro.trace.groundtruth`, the exact
reordering oracle used to grade the fabric detector; it reuses the
harness's RFC 4737 metrics.)
"""
