"""Scheduler paths: a failed task, a SIGKILLed task, resume.

Everything runs through the hidden ``selftest`` experiment — a grid whose
per-task behaviour (ok / fail / crash) is declared in its params, so task
processes can resolve it by name like any real figure.  Its marker files
log one line per actual execution, which is how these tests prove that
every task executes exactly once and resume re-runs nothing completed.
"""

import os

import pytest

from repro.campaign.scheduler import SchedulerConfig, run_campaign
from repro.campaign.spec import CampaignSpec, ExperimentSpec, expand
from repro.campaign.store import ResultStore


def selftest_spec(tmp_path, plan, task_ids=None, **overrides):
    task_ids = task_ids if task_ids is not None else list(range(len(plan)))
    overrides.setdefault("marker_dir", str(tmp_path / "markers"))
    os.makedirs(overrides["marker_dir"], exist_ok=True)
    return CampaignSpec(name="selftest", experiments=(
        ExperimentSpec("selftest",
                       overrides={"plan": list(plan), **overrides},
                       grid={"task_id": task_ids}),
    ))


def executions(spec, task_id):
    """How many times one task actually executed."""
    marker_dir = spec.experiments[0].overrides["marker_dir"]
    path = os.path.join(marker_dir, f"task{task_id}.log")
    if not os.path.exists(path):
        return 0
    with open(path, encoding="utf-8") as handle:
        return sum(1 for line in handle if line.strip())


def by_task(store):
    return {r["point"]["task_id"]: r for r in store.load()}


def test_inline_all_ok(tmp_path):
    # The default jobs=1: the same loop as any jobs, one child at a time.
    spec = selftest_spec(tmp_path, ["ok", "ok", "ok"])
    store = ResultStore(tmp_path / "r.jsonl")
    stats = run_campaign(expand(spec), store, SchedulerConfig())
    assert (stats.ran, stats.ok, stats.failed) == (3, 3, 0)
    assert all(executions(spec, t) == 1 for t in range(3))


@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_sigkill_fails_only_its_task(tmp_path, jobs):
    # One task SIGKILLs its own process; the campaign (and the caller)
    # survive it, the crash is charged to that task alone, and every
    # other task succeeds untouched.
    spec = selftest_spec(tmp_path, ["ok", "crash", "ok", "ok"])
    store = ResultStore(tmp_path / "r.jsonl")
    stats = run_campaign(expand(spec), store, SchedulerConfig(jobs=jobs))
    assert (stats.ran, stats.ok, stats.failed) == (4, 3, 1)
    records = by_task(store)
    assert records[1]["status"] == "failed"
    assert records[1]["failure"] == "crash"
    assert "exit code -9" in records[1]["error"]
    assert all(executions(spec, t) == 1 for t in range(4))
    for task_id in (0, 2, 3):
        assert records[task_id]["status"] == "ok", task_id


def test_resume_skips_completed_tasks(tmp_path):
    spec = selftest_spec(tmp_path, ["ok", "ok", "ok", "ok"])
    tasks = expand(spec)
    store = ResultStore(tmp_path / "r.jsonl")
    # First pass: only the first two tasks (simulates a killed campaign).
    first = run_campaign(tasks[:2], store, SchedulerConfig())
    assert first.ok == 2
    # Resume over the full task list.
    second = run_campaign(tasks, store, SchedulerConfig())
    assert second.skipped == 2
    assert second.ran == 2
    # Every task executed exactly once across both passes.
    assert all(executions(spec, t) == 1 for t in range(4))


def test_resume_over_truncated_store_reruns_lost_task(tmp_path):
    spec = selftest_spec(tmp_path, ["ok", "ok", "ok"])
    tasks = expand(spec)
    path = tmp_path / "r.jsonl"
    store = ResultStore(path)
    run_campaign(tasks, store, SchedulerConfig())
    # kill -9 wreckage: the last record loses its tail.
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]) + lines[-1][:30])
    stats = run_campaign(tasks, store, SchedulerConfig())
    assert stats.skipped == 2
    assert stats.ran == 1
    # Exactly one task re-ran; the other two executed once in total.
    counts = sorted(executions(spec, t) for t in range(3))
    assert counts == [1, 1, 2]


def test_resume_retries_previously_failed_tasks(tmp_path):
    spec = selftest_spec(tmp_path, ["ok", "fail"])
    tasks = expand(spec)
    store = ResultStore(tmp_path / "r.jsonl")
    first = run_campaign(tasks, store, SchedulerConfig())
    # Every outcome is final: the failure is stored once, not re-run.
    assert (first.ran, first.ok, first.failed) == (2, 1, 1)
    assert executions(spec, 1) == 1
    record = by_task(store)[1]
    assert (record["status"], record["failure"]) == ("failed", "error")
    assert "always fails" in record["error"]
    second = run_campaign(tasks, store, SchedulerConfig())
    assert second.skipped == 1  # the completed task
    assert second.ran == 1      # the failed one re-ran
    assert second.failed == 1
    assert executions(spec, 0) == 1
    assert executions(spec, 1) == 2


def test_config_rejects_jobs_below_one():
    # jobs=0 would start no task and report a clean, empty campaign.
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        SchedulerConfig(jobs=0)


def test_jobs_matches_serial_rows(tmp_path):
    spec = selftest_spec(tmp_path, ["ok"] * 6)
    tasks = expand(spec)
    serial = ResultStore(tmp_path / "serial.jsonl")
    run_campaign(tasks, serial, SchedulerConfig())
    parallel = ResultStore(tmp_path / "parallel.jsonl")
    run_campaign(tasks, parallel, SchedulerConfig(jobs=3))

    def rows(store):
        return [r["rows"] for r in sorted(store.load(),
                                          key=lambda r: r["index"])]

    assert rows(serial) == rows(parallel)


@pytest.mark.parametrize("jobs", [1, 2])
def test_every_task_executes_exactly_once(tmp_path, jobs):
    spec = selftest_spec(tmp_path, ["ok"] * 4,
                         marker_dir=str(tmp_path / f"m{jobs}"))
    store = ResultStore(tmp_path / f"r{jobs}.jsonl")
    run_campaign(expand(spec), store, SchedulerConfig(jobs=jobs))
    assert all(executions(spec, t) == 1 for t in range(4))
