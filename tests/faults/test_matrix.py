"""The resilience matrix: presets, determinism, campaign + CLI wiring."""

import dataclasses
import json

import pytest

from repro.campaign import registry
from repro.campaign.spec import CampaignSpec, ExperimentSpec, expand
from repro.faults.experiments import (
    MatrixParams,
    MatrixPoint,
    _PRESETS,
    gro_factory,
    preset_plan,
    render,
    run_point,
)
from repro.faults.plan import KINDS

FAST = dict(duration_ms=8, warmup_ms=2, concurrent_flows=2,
            sample_interval_us=200)


def fast_params(**overrides):
    merged = dict(FAST)
    merged.update(overrides)
    return MatrixParams(**merged)


def test_presets_cover_the_full_catalog():
    assert set(_PRESETS) == set(KINDS)
    for kind, levels in _PRESETS.items():
        assert len(levels) == 3, kind


def test_preset_plan_shape():
    plan = preset_plan("loss", 2, start_us=2_000, stop_us=10_000, seed=5)
    (spec,) = plan.faults
    assert spec.kind == "loss"
    assert spec.at_ns == 2_000_000
    assert plan.seed == 5
    windows = spec.windows()
    assert len(windows) == spec.repeats
    assert windows[0][0] >= 2_000_000


def test_preset_plan_validates_inputs():
    with pytest.raises(ValueError, match="unknown fault kind"):
        preset_plan("meteor", 1, start_us=0, stop_us=1000, seed=0)
    with pytest.raises(ValueError, match="intensity"):
        preset_plan("loss", 4, start_us=0, stop_us=1000, seed=0)


def test_gro_factory_rejects_unknown_engine():
    with pytest.raises(ValueError, match="unknown GRO engine"):
        gro_factory("bbr", None)


def test_run_point_is_deterministic():
    params = fast_params()
    a = run_point(params, fault_kind="loss", intensity=2, engine="juggler")
    b = run_point(params, fault_kind="loss", intensity=2, engine="juggler")
    assert a == b  # same seed => byte-identical cell


def test_cell_seed_is_engine_independent():
    """All three engines must face identical fabric/workload randomness, so
    the cell seed may depend only on (root seed, kind, intensity)."""
    from repro.campaign.spec import derive_seed

    params = fast_params()
    assert derive_seed(params.seed, "faults_matrix", "loss:2") \
        == derive_seed(params.seed, "faults_matrix", "loss:2")
    assert derive_seed(params.seed, "faults_matrix", "loss:2") \
        != derive_seed(params.seed, "faults_matrix", "loss:3")


def test_run_point_returns_measurements():
    point = run_point(fast_params(), fault_kind="blackhole", intensity=3,
                      engine="juggler")
    assert isinstance(point, MatrixPoint)
    assert point.faults_injected > 0
    assert point.packets_dropped > 0
    assert point.rpcs_completed > 0
    assert point.goodput_gbps > 0


def test_matrix_adapter_is_registered_and_hidden():
    adapter = registry.get("faults_matrix")
    assert adapter.hidden
    assert "faults_matrix" not in registry.names()
    assert "faults_matrix" in registry.names(include_hidden=True)
    from repro.cli import EXPERIMENTS

    assert "faults_matrix" not in EXPERIMENTS


def test_matrix_runs_through_the_campaign_machinery():
    spec = CampaignSpec(
        name="t",
        experiments=(ExperimentSpec(
            "faults_matrix",
            overrides=dict(FAST),
            grid={"fault_kind": ["corrupt"], "intensity": [1],
                  "engine": ["juggler", "standard"]},
        ),),
    )
    tasks = expand(spec)
    assert len(tasks) == 2
    adapter = registry.get("faults_matrix")
    rows = []
    for i, task in enumerate(tasks):
        (row,) = adapter.execute(task.base, task.seed, task.point)
        rows.append({"index": i, "rows": [row]})
    table = adapter.render(rows)
    assert "juggler" in table and "standard" in table
    assert "corrupt" in table


def test_render_lists_cells_in_order():
    points = [
        MatrixPoint("loss", 1, "juggler", 1.0, 10.0, 5, 0.1, 2, 1, 3, 4,
                    "eviction:2"),
        MatrixPoint("loss", 1, "standard", 0.9, 12.0, 4, 0.0, 0, 0, 3, 4,
                    ""),
    ]
    table = render(points)
    lines = table.splitlines()
    assert lines[0].split() == [
        "fault", "level", "engine", "goodput_gbps", "p99_us", "rpcs",
        "lr_frac", "evict", "ofo_flush", "windows", "dropped"]
    assert table.index("juggler") < table.index("standard")


def test_faults_run_cli(tmp_path, capsys, monkeypatch):
    from repro.analysis import runtime as sanitize_runtime
    from repro.faults.cli import main

    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({
        "name": "smoke", "seed": 1,
        "faults": [{"name": "l", "kind": "loss", "at_us": 2500,
                    "duration_us": 1000, "every_us": 2000, "repeats": 2,
                    "params": {"p": 0.05}}],
    }))
    out_path = tmp_path / "report.json"
    # The banner must say what is actually armed: "off" is one of the
    # spellings analysis.runtime treats as disabled.
    try:
        for env_value, armed in (("1", True), ("off", False), (None, False)):
            if env_value is None:
                monkeypatch.delenv("JUGGLER_SANITIZE", raising=False)
            else:
                monkeypatch.setenv("JUGGLER_SANITIZE", env_value)
            sanitize_runtime.reset()
            rc = main(["run", "--plan", str(plan_path), "--duration-ms", "8",
                       "--json", str(out_path)])
            assert rc == 0
            out = capsys.readouterr().out
            assert "plan 'smoke'" in out
            assert "goodput_gbps" in out
            assert f"sanitizer={'on' if armed else 'off'}" in out
            assert ("zero invariant violations" in out) == armed
            report = json.loads(out_path.read_text())
            assert report["report"]["faults_injected"] == 2
    finally:
        # Re-arm the lazy probe; it next reads the suite's own environment.
        sanitize_runtime.reset()


def test_faults_run_cli_rejects_bad_plan(tmp_path, capsys):
    from repro.faults.cli import main

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"faults": [{"kind": "meteor", "at_us": 0,
                                           "duration_us": 1}]}))
    assert main(["run", "--plan", str(bad)]) == 2
    assert "bad fault plan" in capsys.readouterr().err


def test_usage_line(capsys):
    from repro.faults.cli import main

    assert main([]) == 2
    err = capsys.readouterr().err
    assert "faults run --plan" in err
    # The matrix is a grid family of the one sweep command now.
    assert "sweep faults_matrix" in err


def test_matrix_point_fields_round_trip_as_dataclass():
    point = MatrixPoint("loss", 1, "juggler", 1.0, 2.0, 3, 0.4, 5, 6, 7, 8,
                        "x:1")
    assert MatrixPoint(**dataclasses.asdict(point)) == point
