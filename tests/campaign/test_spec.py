"""Spec expansion, fingerprints, and per-task seed derivation."""

import json

import pytest

from repro.campaign.spec import (
    CampaignSpec,
    ExperimentSpec,
    build_default_spec,
    canonical_json,
    derive_seed,
    expand,
    make_task,
)

TINY_GRID = {"reorder_delay_us": [250, 500], "inseq_timeout_us": [0, 52]}


def tiny_spec(seed=None):
    return CampaignSpec(name="t", seed=seed, experiments=(
        ExperimentSpec("fig12", overrides={"measure_ms": 3},
                       grid=TINY_GRID),
    ))


def test_expansion_is_row_major_and_indexed():
    tasks = expand(tiny_spec())
    points = [(t.point["reorder_delay_us"], t.point["inseq_timeout_us"])
              for t in tasks]
    # Outer axis (reorder) first — the modules' own loop nesting.
    assert points == [(250, 0), (250, 52), (500, 0), (500, 52)]
    assert [t.index for t in tasks] == [0, 1, 2, 3]


def test_fingerprints_are_stable_and_distinct():
    first = expand(tiny_spec(seed=1))
    second = expand(tiny_spec(seed=1))
    assert [t.fingerprint for t in first] == [t.fingerprint for t in second]
    assert len({t.fingerprint for t in first}) == len(first)


def test_fingerprint_depends_on_params_and_seed():
    base = expand(tiny_spec())[0]
    other_overrides = expand(CampaignSpec(name="t", experiments=(
        ExperimentSpec("fig12", overrides={"measure_ms": 4},
                       grid=TINY_GRID),)))[0]
    other_seed = expand(tiny_spec(seed=7))[0]
    assert base.fingerprint != other_overrides.fingerprint
    assert base.fingerprint != other_seed.fingerprint


def test_campaign_name_does_not_change_fingerprint():
    # Resuming under a different campaign name must still match the store.
    a = make_task("a", "fig12", 0, {}, {"x": 1}, root_seed=3)
    b = make_task("b", "fig12", 9, {}, {"x": 1}, root_seed=3)
    assert a.fingerprint == b.fingerprint


def test_seed_derivation_matches_rng_idiom():
    tasks = expand(tiny_spec(seed=42))
    payload = canonical_json({"base": tasks[0].base,
                              "point": tasks[0].point})
    assert tasks[0].seed == derive_seed(42, "fig12", payload)
    # Distinct points get distinct derived seeds.
    assert len({t.seed for t in tasks}) == len(tasks)


def test_no_root_seed_keeps_module_defaults():
    tasks = expand(tiny_spec())
    assert all(t.seed is None for t in tasks)


def test_default_grid_comes_from_params_defaults():
    from repro.experiments.fig13_ofo_timeout_throughput import Fig13Params

    spec = build_default_spec(["fig13"])
    tasks = expand(spec)
    defaults = Fig13Params()
    assert len(tasks) == (len(defaults.reorder_delays_us)
                          * len(defaults.ofo_timeouts_us))


def test_every_family_expands_one_task_per_point():
    # fig09 and fig10 share a module; each family's default grid is its
    # own slice of it.
    assert [t.point for t in expand(build_default_spec(["sec512"]))] \
        == [{"kind": "juggler"}, {"kind": "vanilla"}]
    fig09 = expand(build_default_spec(["fig09"]))
    fig10 = expand(build_default_spec(["fig10"]))
    assert len(fig09) == len(fig10) == 4
    assert {t.point["num_flows"] for t in fig09} == {1}
    assert {t.point["num_flows"] for t in fig10} == {256}


def test_unknown_experiment_rejected():
    with pytest.raises(KeyError, match="unknown experiment"):
        expand(build_default_spec(["not-a-figure"]))


def test_bad_grid_axis_rejected():
    spec = CampaignSpec(name="t", experiments=(
        ExperimentSpec("fig12", grid={"bogus_axis": [1]}),))
    with pytest.raises(ValueError, match="unknown grid axes"):
        expand(spec)


def test_partial_grid_fills_missing_axes_from_defaults():
    from repro.experiments.fig12_inseq_timeout import Fig12Params

    defaults = Fig12Params()
    partial = expand(CampaignSpec(name="t", experiments=(
        ExperimentSpec("fig12", grid={"inseq_timeout_us": [52]}),)))
    spelled_out = expand(CampaignSpec(name="t", experiments=(
        ExperimentSpec("fig12", grid={
            "inseq_timeout_us": [52],
            "reorder_delay_us": list(defaults.reorder_delays_us)}),)))
    # Same tasks, in the module's nesting order whatever the key order.
    assert [t.point for t in partial] == [
        {"reorder_delay_us": delay, "inseq_timeout_us": 52}
        for delay in defaults.reorder_delays_us]
    assert [t.fingerprint for t in partial] \
        == [t.fingerprint for t in spelled_out]
    # An empty grid is the default grid.
    assert [t.fingerprint for t in expand(CampaignSpec(
        name="t", experiments=(ExperimentSpec("fig12", grid={}),)))] \
        == [t.fingerprint for t in expand(build_default_spec(["fig12"]))]


def test_axis_override_clash_rejected():
    spec = CampaignSpec(name="t", experiments=(
        ExperimentSpec("fig12", overrides={"reorder_delays_us": [250]}),))
    with pytest.raises(ValueError, match="grid axes"):
        expand(spec)


def test_unknown_override_field_rejected():
    spec = CampaignSpec(name="t", experiments=(
        ExperimentSpec("fig12", overrides={"not_a_field": 1}),))
    with pytest.raises(ValueError, match="unknown override"):
        expand(spec)


def test_axis_override_clash_rejected_on_every_family():
    spec = CampaignSpec(name="t", experiments=(
        ExperimentSpec("fig20", overrides={"loads_pct": [25, 50]}),))
    with pytest.raises(ValueError, match="are grid axes"):
        expand(spec)


def test_duplicate_grid_values_rejected():
    spec = CampaignSpec(name="t", experiments=(
        ExperimentSpec("fig12", grid={"reorder_delay_us": [250, 250]}),))
    with pytest.raises(ValueError, match="duplicate"):
        expand(spec)


def test_spec_json_round_trip(tmp_path):
    spec = tiny_spec(seed=5)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    loaded = CampaignSpec.from_file(path)
    assert [t.fingerprint for t in expand(loaded)] == \
           [t.fingerprint for t in expand(spec)]


def test_task_wire_round_trip_is_json_safe():
    task = expand(tiny_spec(seed=1))[0]
    wire = json.loads(json.dumps(task.to_wire()))
    assert wire["fingerprint"] == task.fingerprint
    assert wire["point"] == dict(task.point)
