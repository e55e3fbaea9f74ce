"""What runs inside a campaign worker process.

:func:`execute_task` is the only function the scheduler submits to the
pool.  It resolves the experiment adapter by name (the task itself
crosses the process boundary as a plain dict), enforces the per-task
timeout with ``SIGALRM`` — each worker is a fresh process whose main
thread runs the task, so an alarm cleanly interrupts pure-Python compute
— and reports *every* failure as a structured outcome dict rather than a
raised exception, so one bad task can never poison the pool protocol.

Workers inherit the :mod:`repro.trace` runtime: with ``trace: jsonl`` in
the worker config, each task installs a process-wide tracer writing to
its own per-fingerprint JSONL file before the experiment builds any
components (see docs/observability.md).
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from contextlib import contextmanager
from typing import Optional


class TaskTimeout(Exception):
    """The per-task wall-clock budget expired."""


def _on_alarm(signum, frame):
    raise TaskTimeout()


@contextmanager
def _deadline(timeout_s: Optional[float]):
    """Raise :class:`TaskTimeout` in this process after ``timeout_s``."""
    if not timeout_s or not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def trace_path(trace_dir: str, wire: dict) -> str:
    """Per-task trace file: experiment + fingerprint prefix."""
    return os.path.join(
        trace_dir, f"{wire['experiment']}-{wire['fingerprint'][:12]}.jsonl")


def execute_task(wire: dict, attempt: int, worker_cfg: dict) -> dict:
    """Run one task; always return an outcome dict, never raise.

    Outcome: ``{"status": "ok", "rows": [...], "elapsed_s": ...}`` or
    ``{"status": "timeout"|"error", "error": ..., "traceback": ...}``.
    """
    from repro.campaign import registry
    from repro.trace import runtime

    started = time.perf_counter()
    timeout_s = worker_cfg.get("timeout_s")
    tracer = None
    trace_file = None
    try:
        adapter = registry.get(wire["experiment"])
        if worker_cfg.get("trace") == "jsonl" and worker_cfg.get("trace_dir"):
            from repro.trace.sinks import JsonlSink
            from repro.trace.tracer import Tracer

            trace_file = trace_path(worker_cfg["trace_dir"], wire)
            tracer = Tracer([JsonlSink(trace_file)])
            runtime.install(tracer)
        with _deadline(timeout_s):
            rows = adapter.execute(wire["base"], wire["seed"],
                                   wire["point"], attempt=attempt)
        return {
            "status": "ok",
            "rows": rows,
            "elapsed_s": round(time.perf_counter() - started, 4),
            "trace_file": trace_file,
        }
    except TaskTimeout:
        return {
            "status": "timeout",
            "error": f"task exceeded its {timeout_s}s timeout",
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
