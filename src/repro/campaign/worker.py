"""What runs inside a campaign task's child process.

:func:`execute_task` is the only function a child runs.  It resolves the
experiment adapter by name (the task itself crosses the process boundary
as a plain dict) and reports *every* failure as a structured outcome dict
rather than a raised exception, so the scheduler records what went wrong.

Children inherit the :mod:`repro.trace` runtime: given a ``trace_dir``,
each task installs a process-wide tracer writing to its own
per-fingerprint JSONL file before the experiment builds any components
(see docs/observability.md).
"""

from __future__ import annotations

import os
import time
import traceback
from typing import Optional


def trace_path(trace_dir: str, wire: dict) -> str:
    """Per-task trace file: experiment + fingerprint prefix."""
    return os.path.join(
        trace_dir, f"{wire['experiment']}-{wire['fingerprint'][:12]}.jsonl")


def execute_task(wire: dict, trace_dir: Optional[str] = None) -> dict:
    """Run one task; always return an outcome dict, never raise.

    Outcome: ``{"status": "ok", "rows": [...], "elapsed_s": ...}`` or
    ``{"status": "error", "error": ..., "traceback": ...}``.
    """
    from repro.campaign import registry
    from repro.trace import runtime

    started = time.perf_counter()
    tracer = None
    trace_file = None
    try:
        adapter = registry.get(wire["experiment"])
        if trace_dir:
            from repro.trace.sinks import JsonlSink
            from repro.trace.tracer import Tracer

            trace_file = trace_path(trace_dir, wire)
            tracer = Tracer([JsonlSink(trace_file)])
            runtime.install(tracer)
        rows = adapter.execute(wire["base"], wire["seed"], wire["point"])
        return {
            "status": "ok",
            "rows": rows,
            "elapsed_s": round(time.perf_counter() - started, 4),
            "trace_file": trace_file,
        }
    except Exception as exc:  # noqa: BLE001 — outcomes cross processes
        return {
            "status": "error",
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
            "elapsed_s": round(time.perf_counter() - started, 4),
            "trace_file": trace_file,
        }
    finally:
        if tracer is not None:
            runtime.uninstall()
            tracer.close()
