"""Scheduler failure paths: timeout, SIGKILL, retry accounting, resume.

Everything runs through the hidden ``selftest`` experiment — a grid whose
per-task behaviour (ok / fail / flaky / crash / sleep) is declared in its
params, so worker processes can resolve it by name like any real figure.
Its marker files log one line per actual execution, which is how these
tests prove that resume re-runs nothing and retries run exactly as
budgeted.
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
    """Attempt numbers of every actual execution of one task, in order."""
    marker_dir = spec.experiments[0].overrides["marker_dir"]
    path = os.path.join(marker_dir, f"task{task_id}.log")
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as handle:
        return [int(line.split()[0]) for line in handle if line.strip()]


def by_task(store):
    return {r["point"]["task_id"]: r for r in store.load()}


CONFIG = dict(retries=1, backoff_s=0.0)


def test_inline_all_ok(tmp_path):
    spec = selftest_spec(tmp_path, ["ok", "ok", "ok"])
    store = ResultStore(tmp_path / "r.jsonl")
    stats = run_campaign(expand(spec), store, SchedulerConfig(**CONFIG))
    assert (stats.ran, stats.ok, stats.failed) == (3, 3, 0)
    assert all(executions(spec, t) == [1] for t in range(3))


def test_task_timeout_fails_after_retries(tmp_path):
    spec = selftest_spec(tmp_path, ["ok", "sleep"], sleep_s=5.0)
    store = ResultStore(tmp_path / "r.jsonl")
    stats = run_campaign(
        expand(spec), store,
        SchedulerConfig(timeout_s=0.3, **CONFIG))
    assert (stats.ok, stats.failed, stats.retries) == (1, 1, 1)
    failed = by_task(store)[1]
    assert failed["status"] == "failed"
    assert failed["failure"] == "timeout"
    assert failed["attempts"] == 2
    assert "timeout" in failed["error"]
    # The alarm interrupted the sleep: both attempts actually started.
    assert executions(spec, 1) == [1, 2]


def test_worker_sigkill_fails_only_its_task(tmp_path):
    # One task SIGKILLs its worker on every attempt; the campaign must
    # still complete and every innocent task must succeed untouched.
    spec = selftest_spec(tmp_path, ["ok", "crash", "ok", "ok"])
    store = ResultStore(tmp_path / "r.jsonl")
    stats = run_campaign(expand(spec), store,
                         SchedulerConfig(jobs=2, **CONFIG))
    assert stats.failed == 1
    assert stats.ok == 3
    assert stats.pool_rebuilds >= 1
    records = by_task(store)
    assert records[1]["status"] == "failed"
    assert records[1]["failure"] == "crash"
    assert records[1]["attempts"] == 2
    assert executions(spec, 1) == [1, 1, 2] or executions(spec, 1) == [1, 2]
    for task_id in (0, 2, 3):
        assert records[task_id]["status"] == "ok", task_id


def test_crash_once_recovers_on_retry(tmp_path):
    spec = selftest_spec(tmp_path, ["crash_once", "ok"], fail_attempts=1)
    store = ResultStore(tmp_path / "r.jsonl")
    stats = run_campaign(expand(spec), store,
                         SchedulerConfig(jobs=2, **CONFIG))
    assert (stats.ok, stats.failed) == (2, 0)
    assert by_task(store)[0]["attempts"] == 2


def test_retry_then_give_up_accounting(tmp_path):
    spec = selftest_spec(tmp_path, ["fail"])
    store = ResultStore(tmp_path / "r.jsonl")
    stats = run_campaign(expand(spec), store,
                         SchedulerConfig(retries=2, backoff_s=0.0))
    record = by_task(store)[0]
    assert record["status"] == "failed"
    assert record["failure"] == "error"
    assert record["attempts"] == 3  # 1 try + 2 retries
    assert stats.retries == 2
    assert executions(spec, 0) == [1, 2, 3]


def test_flaky_succeeds_within_budget(tmp_path):
    spec = selftest_spec(tmp_path, ["flaky"], fail_attempts=2)
    store = ResultStore(tmp_path / "r.jsonl")
    stats = run_campaign(expand(spec), store,
                         SchedulerConfig(retries=2, backoff_s=0.0))
    record = by_task(store)[0]
    assert record["status"] == "ok"
    assert record["attempts"] == 3
    assert stats.retries == 2
    assert executions(spec, 0) == [1, 2, 3]


def test_resume_skips_completed_tasks(tmp_path):
    spec = selftest_spec(tmp_path, ["ok", "ok", "ok", "ok"])
    tasks = expand(spec)
    store = ResultStore(tmp_path / "r.jsonl")
    # First pass: only the first two tasks (simulates a killed campaign).
    first = run_campaign(tasks[:2], store, SchedulerConfig(**CONFIG))
    assert first.ok == 2
    # Resume over the full task list.
    second = run_campaign(tasks, store, SchedulerConfig(**CONFIG))
    assert second.skipped == 2
    assert second.ran == 2
    # Every task executed exactly once across both passes.
    assert all(executions(spec, t) == [1] for t in range(4))


def test_resume_over_truncated_store_reruns_lost_task(tmp_path):
    spec = selftest_spec(tmp_path, ["ok", "ok", "ok"])
    tasks = expand(spec)
    path = tmp_path / "r.jsonl"
    store = ResultStore(path)
    run_campaign(tasks, store, SchedulerConfig(**CONFIG))
    # kill -9 wreckage: the last record loses its tail.
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]) + lines[-1][:30])
    stats = run_campaign(tasks, store, SchedulerConfig(**CONFIG))
    assert stats.skipped == 2
    assert stats.ran == 1
    # Exactly one task re-ran; the other two executed once in total.
    counts = sorted(len(executions(spec, t)) for t in range(3))
    assert counts == [1, 1, 2]


def test_resume_retries_previously_failed_tasks(tmp_path):
    spec = selftest_spec(tmp_path, ["ok", "flaky"], fail_attempts=99)
    tasks = expand(spec)
    store = ResultStore(tmp_path / "r.jsonl")
    first = run_campaign(tasks, store,
                         SchedulerConfig(retries=0, backoff_s=0.0))
    assert first.failed == 1
    second = run_campaign(tasks, store,
                          SchedulerConfig(retries=0, backoff_s=0.0))
    assert second.skipped == 1  # the completed task
    assert second.ran == 1      # the failed one re-ran
    assert executions(spec, 0) == [1]
    assert executions(spec, 1) == [1, 1]


def test_jobs_matches_serial_rows(tmp_path):
    spec = selftest_spec(tmp_path, ["ok"] * 6)
    tasks = expand(spec)
    serial = ResultStore(tmp_path / "serial.jsonl")
    run_campaign(tasks, serial, SchedulerConfig(**CONFIG))
    parallel = ResultStore(tmp_path / "parallel.jsonl")
    run_campaign(tasks, parallel, SchedulerConfig(jobs=3, **CONFIG))

    def rows(store):
        return [r["rows"] for r in sorted(store.load(),
                                          key=lambda r: r["index"])]

    assert rows(serial) == rows(parallel)


@pytest.mark.parametrize("jobs", [1, 2])
def test_every_task_executes_exactly_once(tmp_path, jobs):
    spec = selftest_spec(tmp_path, ["ok"] * 4,
                         marker_dir=str(tmp_path / f"m{jobs}"))
    store = ResultStore(tmp_path / f"r{jobs}.jsonl")
    run_campaign(expand(spec), store, SchedulerConfig(jobs=jobs, **CONFIG))
    assert all(executions(spec, t) == [1] for t in range(4))
