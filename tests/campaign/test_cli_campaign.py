"""The campaign CLI surface and `juggler-repro all --jobs` routing."""

import json
import os

import pytest

import repro.campaign.cli as campaign_cli
import repro.cli as cli
from repro.campaign.scheduler import SchedulerConfig
from repro.campaign.spec import build_default_spec


def selftest_args(tmp_path, *extra, plan=("ok", "ok")):
    marker_dir = tmp_path / "markers"
    marker_dir.mkdir(exist_ok=True)
    spec = {
        "name": "cli-selftest",
        "experiments": [{
            "experiment": "selftest",
            "overrides": {"plan": list(plan),
                          "marker_dir": str(marker_dir)},
            "grid": {"task_id": list(range(len(plan)))},
        }],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    return ["--spec", str(spec_path),
            "--store", str(tmp_path / "r.jsonl"), *extra]


def executions(tmp_path, task_id):
    path = tmp_path / "markers" / f"task{task_id}.log"
    if not path.exists():
        return 0
    return sum(1 for line in path.read_text().splitlines() if line.strip())


def test_campaign_run_resume_report(tmp_path, capsys):
    args = selftest_args(tmp_path)
    assert cli.main(["campaign", "run", *args, "--report"]) == 0
    out = capsys.readouterr().out
    assert "ran 2, ok 2, failed 0" in out
    assert "task_id" in out  # the rendered selftest table

    # Resume re-runs nothing.
    assert cli.main(["campaign", "resume", *args]) == 0
    assert "ran 0," in capsys.readouterr().out
    assert executions(tmp_path, 0) == 1
    assert executions(tmp_path, 1) == 1

    # Report re-renders from the store alone, plus a JSON summary.
    summary_path = tmp_path / "summary.json"
    assert cli.main(["campaign", "report",
                     "--store", str(tmp_path / "r.jsonl"),
                     "--json", str(summary_path)]) == 0
    assert "task_id" in capsys.readouterr().out
    summary = json.loads(summary_path.read_text())
    assert summary["ok"] == 2
    assert summary["failed"] == 0


def test_campaign_run_refuses_nonempty_store(tmp_path, capsys):
    args = selftest_args(tmp_path)
    assert cli.main(["campaign", "run", *args]) == 0
    capsys.readouterr()
    assert cli.main(["campaign", "run", *args]) == 2
    assert "campaign resume" in capsys.readouterr().err
    # The guard fired before any task ran.
    assert executions(tmp_path, 0) == 1


def test_campaign_run_exit_code_on_failure(tmp_path, capsys):
    args = selftest_args(tmp_path, plan=("ok", "fail"))
    assert cli.main(["campaign", "run", *args]) == 1
    assert "failed 1" in capsys.readouterr().out


def test_campaign_rejects_spec_and_experiments_together(tmp_path):
    args = selftest_args(tmp_path)
    with pytest.raises(SystemExit):
        cli.main(["campaign", "run", *args, "--experiments", "fig12"])


@pytest.mark.parametrize("argv", [
    ["campaign", "run", "--experiments", "fig12"],
    ["sweep", "sec512"],
    ["all"],
])
def test_jobs_below_one_is_rejected(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--store", str(tmp_path / "r.jsonl"),
                  "--jobs", "0"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "r.jsonl").exists()


def test_campaign_rejects_unknown_experiment(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["campaign", "run", "--experiments", "nope",
                  "--store", str(tmp_path / "r.jsonl")])


def test_all_jobs_flag_routes_through_campaign(monkeypatch):
    calls = {}

    def fake(spec, store_path, config, **kwargs):
        calls.update(spec=spec, store=store_path, config=config)
        return 0

    monkeypatch.setattr(campaign_cli, "run_and_report", fake)
    assert cli.main(["all", "--jobs", "4", "--seed", "7"]) == 0
    assert [e.experiment for e in calls["spec"].experiments] \
        == list(cli.EXPERIMENTS)
    assert calls["config"].jobs == 4
    assert calls["spec"].seed == 7
    assert calls["store"] is None


def test_seed_alone_routes_through_campaign(monkeypatch):
    calls = {}
    monkeypatch.setattr(
        campaign_cli, "run_and_report",
        lambda spec, store, config: calls.update(jobs=config.jobs) or 0)
    assert cli.main(["fig12", "--seed", "3"]) == 0
    assert calls["jobs"] == 1


def test_default_stays_serial(monkeypatch, capsys):
    # --jobs 1, no seed: the historical in-process loop, not the campaign.
    monkeypatch.setattr(
        campaign_cli, "run_and_report",
        lambda *a, **k: pytest.fail("campaign path must not be taken"))
    monkeypatch.setitem(cli.EXPERIMENTS, "fig12",
                        (lambda: "STUB-OUTPUT", "stub"))
    assert cli.main(["fig12"]) == 0
    assert "STUB-OUTPUT" in capsys.readouterr().out


def test_run_and_report_selftest_end_to_end(tmp_path, capsys, monkeypatch):
    # Integration: the real run_and_report over the hidden selftest
    # experiment, store kept at a caller-chosen path.
    monkeypatch.chdir(tmp_path)
    store = tmp_path / "all.jsonl"
    rc = campaign_cli.run_and_report(
        build_default_spec(["selftest"], name="cli"), str(store),
        SchedulerConfig(jobs=2))
    assert rc == 0
    out = capsys.readouterr().out
    assert "ok 4, failed 0" in out
    assert "task_id" in out  # the report is on by default
    assert os.path.getsize(store) > 0
