"""Run campaign tasks, each in its own child process.

Every pending task is started as a :class:`multiprocessing.Process`; at
most ``jobs`` run at once, and ``jobs == 1`` is the same loop with one
child.  The child sends its outcome dict (see :mod:`repro.campaign.worker`)
back over a one-way pipe.  The parent waits on the pipes and reads an
outcome before joining its child, so a large outcome cannot fill the pipe
and deadlock.  A pipe that closes with no outcome means that child died
hard (``kill -9``, OOM): its task alone is recorded as a ``crash``, and
the caller survives it.

A task is a deterministic function of its inputs, so a failure would
repeat: every outcome is final.  A failed task is stored as failed, and
``campaign resume`` re-runs exactly those.  Every finished task is
appended to the result store immediately, which is what makes ``campaign
resume`` cheap and a crash of the *scheduler* process lose almost nothing.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Callable, Optional, Sequence

from repro.campaign.spec import Task
from repro.campaign.store import ResultStore, make_record
from repro.campaign.worker import execute_task

Progress = Optional[Callable[[str], None]]


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs for one campaign run."""

    #: Child processes running at once.
    jobs: int = 1
    #: "jsonl" to give every task its own trace file under ``trace_dir``.
    trace: Optional[str] = None
    trace_dir: Optional[str] = None

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, not {self.jobs}")


@dataclass
class CampaignStats:
    """What happened, for the summary line."""

    planned: int = 0
    skipped: int = 0
    ran: int = 0
    ok: int = 0
    failed: int = 0
    elapsed_s: float = 0.0

    def summary_line(self, name: str) -> str:
        return (f"campaign '{name}': planned {self.planned}, "
                f"skipped {self.skipped}, ran {self.ran}, ok {self.ok}, "
                f"failed {self.failed} ({self.elapsed_s:.1f}s)")


def _child(writer, wire: dict, trace_dir: Optional[str]) -> None:
    writer.send(execute_task(wire, trace_dir))


def run_campaign(tasks: Sequence[Task], store: ResultStore,
                 config: SchedulerConfig = SchedulerConfig(),
                 progress: Progress = None) -> CampaignStats:
    """Run every task not already completed in ``store``."""
    say = progress or (lambda _line: None)
    started = time.perf_counter()
    stats = CampaignStats(planned=len(tasks))

    done = store.completed()
    todo = [task for task in tasks if task.fingerprint not in done]
    stats.skipped = len(tasks) - len(todo)
    if stats.skipped:
        say(f"resume: {stats.skipped} task(s) already complete, "
            f"{len(todo)} to run")

    trace_dir = config.trace_dir if config.trace == "jsonl" else None
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)

    queue = iter(todo)
    running = {}  # reader -> (task, process)
    try:
        while True:
            while len(running) < config.jobs:
                task = next(queue, None)
                if task is None:
                    break
                reader, writer = multiprocessing.Pipe(duplex=False)
                process = multiprocessing.Process(
                    target=_child, args=(writer, task.to_wire(), trace_dir),
                    daemon=True)
                process.start()
                writer.close()
                running[reader] = (task, process)
            if not running:
                break
            for reader in wait(list(running)):
                task, process = running.pop(reader)
                try:
                    outcome = reader.recv()
                except EOFError:
                    outcome = None
                reader.close()
                process.join()
                if outcome is None:
                    outcome = {"status": "crash", "error": (
                        f"worker process died without an outcome "
                        f"(exit code {process.exitcode})")}
                _finish(store, stats, task, outcome, say)
    finally:
        for _task, process in running.values():
            process.kill()
            process.join()

    stats.elapsed_s = round(time.perf_counter() - started, 3)
    return stats


def _finish(store: ResultStore, stats: CampaignStats, task: Task,
            outcome: dict, say) -> None:
    store.append(make_record(task.to_wire(), outcome))
    stats.ran += 1
    if outcome["status"] == "ok":
        stats.ok += 1
        say(f"  ok     {task.label} ({outcome['elapsed_s']:.2f}s)")
    else:
        stats.failed += 1
        say(f"  FAILED {task.label}: {outcome['error']}")
