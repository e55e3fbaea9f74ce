"""Reporter: rebuilding render() tables from stored records."""

import json

from repro.campaign.scheduler import SchedulerConfig, run_campaign
from repro.campaign.spec import CampaignSpec, ExperimentSpec, expand
from repro.campaign.store import ResultStore
from repro.campaign.reporter import render_report, summarize

TINY_FIG12 = ExperimentSpec(
    "fig12",
    overrides={"warmup_ms": 2, "measure_ms": 3},
    grid={"reorder_delay_us": [250], "inseq_timeout_us": [0, 52]},
)


def run_tiny(tmp_path, name="r"):
    spec = CampaignSpec(name="t", experiments=(TINY_FIG12,))
    store = ResultStore(tmp_path / f"{name}.jsonl")
    run_campaign(expand(spec), store, SchedulerConfig())
    return spec, store


def test_report_matches_module_render(tmp_path):
    import dataclasses

    from repro.experiments import fig12_inseq_timeout as mod
    from repro.experiments.common import run_grid

    spec, store = run_tiny(tmp_path)
    report = render_report(store.load(), spec)
    params = dataclasses.replace(
        mod.Fig12Params(), warmup_ms=2, measure_ms=3,
        reorder_delays_us=(250,), inseq_timeouts_us=(0, 52))
    expected = mod.render(run_grid(mod, params))
    assert expected in report


def test_report_is_independent_of_record_order(tmp_path):
    spec, store = run_tiny(tmp_path)
    records = store.load()
    assert render_report(records, spec) == \
           render_report(list(reversed(records)), spec)


def test_failed_tasks_get_their_own_section(tmp_path):
    spec, store = run_tiny(tmp_path)
    records = store.load()
    records.append({
        "fingerprint": "x", "campaign": "t", "experiment": "fig12",
        "index": 99, "base": {}, "point": {"reorder_delay_us": 9999},
        "seed": None, "status": "failed", "failure": "crash",
        "error": "worker process died without an outcome (exit code -9)",
        "elapsed_s": None, "rows": None, "trace_file": None,
    })
    report = render_report(records, spec)
    assert "FAILED TASKS (1)" in report
    assert "fig12[reorder_delay_us=9999]: crash — worker process died" \
        in report


def test_empty_store_renders_placeholder():
    assert render_report([]) == "(no results in store)"


def test_summarize_counts(tmp_path):
    spec, store = run_tiny(tmp_path)
    summary = summarize(store.load())
    assert summary["tasks"] == 2
    assert summary["ok"] == 2
    assert summary["failed"] == 0
    assert summary["campaigns"] == ["t"]
    assert summary["experiments"]["fig12"]["rows"] == 2
    # The summary must be JSON-serialisable as-is.
    json.dumps(summary)


def test_every_family_renders_any_one_of_its_points():
    # No simulation: every recorded golden row is a one-point subset of
    # its family, rebuilt from JSON the way the reporter rebuilds a store.
    import os

    from repro.campaign import registry

    rows_path = os.path.join(os.path.dirname(__file__), os.pardir,
                             "golden", "rows.json")
    with open(rows_path) as fh:
        golden = json.load(fh)
    assert set(golden) == set(registry.names(include_hidden=True)) \
        - {"selftest"}
    for family, cells in golden.items():
        adapter = registry.get(family)
        for cell, rows in cells.items():
            for row in rows if isinstance(rows, list) else [rows]:
                text = adapter.render([{"index": 0, "rows": [row]}])
                assert len(text.splitlines()) >= 3, (family, cell, text)
