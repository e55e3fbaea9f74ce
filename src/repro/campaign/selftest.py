"""Failure-injection experiment for exercising the campaign scheduler.

Registered (hidden) as ``selftest`` so task processes can resolve it by
name like any real experiment.  Each grid point's behaviour comes from
``plan[task_id]``:

``ok``     return a row immediately.
``fail``   raise (a task that fails is stored failed, not re-run).
``crash``  ``SIGKILL`` the task's own process (the crash path).

When ``marker_dir`` is set, every execution appends one ``<pid>`` line to
``<marker_dir>/task<task_id>.log`` before doing anything else — tests
count lines to prove each task executes exactly once and resume re-runs
nothing completed (the line survives even when the execution then kills
its own process).
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass
from typing import List

from repro.harness.reporting import format_table


@dataclass(frozen=True)
class SelftestParams:
    """Grid configuration (``task_ids`` is the only axis)."""

    task_ids: tuple = (0, 1, 2, 3)
    #: Behaviour per task id (padded with "ok" when shorter).
    plan: tuple = ()
    marker_dir: str = ""
    seed: int = 99


@dataclass
class SelftestPoint:
    """One executed point."""

    task_id: int
    mode: str
    value: int


#: Sweep axes: (point field, params grid field).
POINT_AXES = (("task_id", "task_ids"),)


def _mode(params: SelftestParams, task_id: int) -> str:
    if 0 <= task_id < len(params.plan):
        return params.plan[task_id]
    return "ok"


def run_point(params: SelftestParams, *, task_id: int) -> SelftestPoint:
    """Execute one point with the planned behaviour."""
    if params.marker_dir:
        marker = os.path.join(params.marker_dir, f"task{task_id}.log")
        with open(marker, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
            handle.flush()
            os.fsync(handle.fileno())
    mode = _mode(params, task_id)
    if mode == "fail":
        raise RuntimeError(f"selftest task {task_id} always fails")
    if mode == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
    # Deterministic payload: depends only on (seed, task_id).
    value = (params.seed * 1_000_003 + task_id * 97) % 1_000_000_007
    return SelftestPoint(task_id=task_id, mode=mode, value=value)


def render(points: List[SelftestPoint]) -> str:
    """The points as a table."""
    rows = [(p.task_id, p.mode, p.value) for p in points]
    return format_table(["task_id", "mode", "value"], rows)
