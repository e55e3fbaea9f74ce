"""Byte-level determinism: --jobs must never change results.

The acceptance bar from the roadmap: a campaign at ``--jobs 4`` produces
byte-identical result rows and report text to ``--jobs 1``, and with no
root seed the campaign rows match the serial ``run_grid``.
"""

import dataclasses

from repro.campaign.scheduler import SchedulerConfig, run_campaign
from repro.campaign.spec import CampaignSpec, ExperimentSpec, expand
from repro.campaign.store import ResultStore
from repro.campaign.reporter import render_report

SPEC = CampaignSpec(name="det", experiments=(
    ExperimentSpec("fig12",
                   overrides={"warmup_ms": 2, "measure_ms": 3},
                   grid={"reorder_delay_us": [250],
                         "inseq_timeout_us": [0, 52]}),
    ExperimentSpec("fig13",
                   overrides={"warmup_ms": 2, "measure_ms": 3},
                   grid={"reorder_delay_us": [250],
                         "ofo_timeout_us": [100, 900]}),
))


def campaign_rows(tmp_path, jobs):
    store = ResultStore(tmp_path / f"jobs{jobs}.jsonl")
    stats = run_campaign(expand(SPEC), store,
                         SchedulerConfig(jobs=jobs))
    assert stats.failed == 0
    records = sorted(store.load(),
                     key=lambda r: (r["experiment"], r["index"]))
    rows = [(r["experiment"], r["index"], r["rows"]) for r in records]
    return rows, render_report(store.load(), SPEC)


def test_parallel_rows_and_report_match_serial(tmp_path):
    serial_rows, serial_report = campaign_rows(tmp_path, jobs=1)
    parallel_rows, parallel_report = campaign_rows(tmp_path, jobs=4)
    assert serial_rows == parallel_rows
    assert serial_report == parallel_report


def test_campaign_rows_match_module_serial_run(tmp_path):
    # No root seed: tasks keep the module defaults, so the campaign's
    # fig12 rows are the very numbers run_grid computes in-process.
    from repro.experiments import fig12_inseq_timeout as mod
    from repro.experiments.common import run_grid

    params = dataclasses.replace(
        mod.Fig12Params(), warmup_ms=2, measure_ms=3,
        reorder_delays_us=(250,), inseq_timeouts_us=(0, 52))
    expected = [dataclasses.asdict(p) for p in run_grid(mod, params)]

    store = ResultStore(tmp_path / "r.jsonl")
    run_campaign(expand(SPEC), store, SchedulerConfig(jobs=2))
    fig12 = sorted((r for r in store.load() if r["experiment"] == "fig12"),
                   key=lambda r: r["index"])
    got = [row for record in fig12 for row in record["rows"]]
    assert got == expected


def test_task_rows_do_not_depend_on_process_history():
    """A cell is a function of its inputs: whatever a worker process ran
    before a task (and however many TSO bursts that sent), the task's rows
    are the same.  fig20's per-TSO routing hashes ``(flow, tso_id)``, so a
    process-wide burst counter used to make it the task that moved."""
    from repro.campaign import registry

    def fig20_per_tso():
        return registry.get("fig20").execute(
            {"warmup_ms": 2, "measure_ms": 4}, None,
            {"policy": "per-tso", "load_pct": 70})

    def fig13_point():
        return registry.get("fig13").execute(
            {"warmup_ms": 2, "measure_ms": 3}, None,
            {"reorder_delay_us": 500, "ofo_timeout_us": 100})

    tso_first = fig20_per_tso()
    fig13_second = fig13_point()
    tso_after_fig13 = fig20_per_tso()
    tso_twice = fig20_per_tso()
    fig13_after_tso = fig13_point()
    assert tso_first == tso_after_fig13 == tso_twice
    assert fig13_second == fig13_after_tso
