"""FaultPlan parsing, validation and window expansion."""

import json

import pytest

from repro.faults.plan import KINDS, WIRE_KINDS, FaultPlan, FaultSpec, load_plan
from repro.sim.time import US


def minimal(**overrides):
    entry = {"name": "f", "kind": "loss", "at_us": 10, "duration_us": 5}
    entry.update(overrides)
    return {"name": "p", "seed": 3, "faults": [entry]}


def test_parse_minimal_plan():
    plan = FaultPlan.from_dict(minimal())
    assert plan.name == "p"
    assert plan.seed == 3
    (spec,) = plan.faults
    assert spec.name == "f"
    assert spec.kind == "loss"
    assert spec.at_ns == 10 * US
    assert spec.duration_ns == 5 * US
    assert spec.repeats == 1
    assert spec.windows() == [(10 * US, 15 * US)]


def test_repeated_windows():
    plan = FaultPlan.from_dict(minimal(every_us=20, repeats=3))
    (spec,) = plan.faults
    assert spec.windows() == [
        (10 * US, 15 * US),
        (30 * US, 35 * US),
        (50 * US, 55 * US),
    ]


def test_param_falls_back_to_catalog_default():
    plan = FaultPlan.from_dict(minimal())
    (spec,) = plan.faults
    assert spec.param("p") == KINDS["loss"][1]["p"]
    plan = FaultPlan.from_dict(minimal(params={"p": 0.5}))
    assert plan.faults[0].param("p") == 0.5


def test_layer_and_wire_split():
    plan = FaultPlan.from_dict({"faults": [
        {"name": "a", "kind": "loss", "at_us": 0, "duration_us": 1},
        {"name": "b", "kind": "queue_saturation", "at_us": 0,
         "duration_us": 1},
        {"name": "c", "kind": "receiver_stall", "at_us": 0,
         "duration_us": 1},
    ]})
    assert [s.name for s in plan.wire_faults()] == ["a"]
    assert plan.faults[1].layer == "link"
    assert plan.faults[2].layer == "host"
    assert all(KINDS[k][0] == "wire" for k in WIRE_KINDS)


def test_roundtrip_through_to_dict():
    original = FaultPlan.from_dict({
        "name": "rt", "seed": 9,
        "faults": [
            {"name": "x", "kind": "jitter", "at_us": 100, "duration_us": 50,
             "every_us": 200, "repeats": 4,
             "params": {"p": 0.3, "extra_us_max": 40}},
            {"name": "y", "kind": "blackhole", "at_us": 5, "duration_us": 1},
        ],
    })
    assert FaultPlan.from_dict(original.to_dict()) == original


def test_defaults_for_name_and_seed():
    plan = FaultPlan.from_dict({"faults": [
        {"kind": "loss", "at_us": 0, "duration_us": 1}]})
    assert plan.name == "faults"
    assert plan.seed == 0
    assert plan.faults[0].name == "loss0"


@pytest.mark.parametrize("mutate, match", [
    (lambda d: d.pop("faults"), "needs a 'faults' list"),
    (lambda d: d.update(extra=1), "unknown plan keys"),
    (lambda d: d["faults"][0].update(kind="meteor"), "unknown kind"),
    (lambda d: d["faults"][0].update(params={"q": 1}), "unknown params"),
    (lambda d: d["faults"][0].pop("at_us"), "missing 'at_us'"),
    (lambda d: d["faults"][0].pop("duration_us"), "missing 'duration_us'"),
    (lambda d: d["faults"][0].update(at_us=-1), "at_us >= 0"),
    (lambda d: d["faults"][0].update(duration_us=0), "duration_us > 0"),
    (lambda d: d["faults"][0].update(repeats=0), "repeats must be >= 1"),
    (lambda d: d["faults"][0].update(repeats=2, every_us=1),
     "every_us >= duration_us"),
    (lambda d: d["faults"][0].update(typo=1), "unknown keys"),
])
def test_validation_rejects(mutate, match):
    data = minimal()
    mutate(data)
    with pytest.raises(ValueError, match=match):
        FaultPlan.from_dict(data)


def bad_param(kind, **params):
    return {"faults": [{"kind": kind, "at_us": 0, "duration_us": 1,
                        "params": params}]}


BAD_VALUES = [
    ("loss", {"p": 1.5}, r"fault #0 \(loss\): p must be a number in \[0, 1\]"),
    ("loss", {"p": -0.1}, r"p must be a number in \[0, 1\], got -0.1"),
    ("loss", {"p": "0.5"}, r"p must be a number in \[0, 1\], got '0.5'"),
    ("loss", {"p": True}, "p must be a number"),
    ("loss", {"p": float("nan")}, "p must be a number"),
    ("burst_loss", {"p_exit": 2}, "p_exit must be a number in"),
    ("jitter", {"p": 7}, r"fault #0 \(jitter\): p must be"),
    ("jitter", {"extra_us_max": 0}, "extra_us_max must be a number >= 1"),
    ("ring_overflow", {"ring_size": 0}, "ring_size must be a number >= 1"),
    ("queue_saturation", {"capacity_bytes": -9000},
     "capacity_bytes must be a number >= 0"),
    ("ce_storm", {"threshold_bytes": -1}, "threshold_bytes must be"),
    ("steering_churn", {"migrate_fraction": 1.01}, "migrate_fraction must"),
    ("steering_churn", {"flush_table": 1}, "flush_table must be true or false"),
]


@pytest.mark.parametrize("kind, params, match", BAD_VALUES, ids=[
    f"{kind}-{key}={value!r}" for kind, params, _ in BAD_VALUES
    for key, value in params.items()])
def test_param_values_are_bounded(kind, params, match):
    with pytest.raises(ValueError, match=match):
        FaultPlan.from_dict(bad_param(kind, **params))


def test_catalog_defaults_lie_in_bounds():
    for kind, (_, defaults) in KINDS.items():
        FaultPlan.from_dict(bad_param(kind, **defaults))


def test_cli_rejects_an_out_of_range_value(tmp_path, capsys):
    from repro.faults.cli import main

    path = tmp_path / "plan.json"
    path.write_text(json.dumps(bad_param("ring_overflow", ring_size=0)))
    assert main(["run", "--plan", str(path)]) == 2
    assert "bad fault plan: fault #0 (ring_overflow): ring_size" in \
        capsys.readouterr().err


def test_committed_ci_plan_parses():
    plan = FaultPlan.from_file("scripts/specs/chaos_plan.json")
    assert plan.name == "ci-chaos"
    layers = {spec.layer for spec in plan.faults}
    assert layers == {"wire", "link", "nic", "host"}  # every layer covered


def test_duplicate_fault_names_rejected():
    data = minimal()
    data["faults"].append(dict(data["faults"][0]))
    with pytest.raises(ValueError, match="duplicate fault names"):
        FaultPlan.from_dict(data)


def test_load_plan_roundtrip(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(minimal()))
    plan = load_plan(path)
    assert plan.faults[0].kind == "loss"


def test_load_plan_missing_file():
    with pytest.raises(FileNotFoundError):
        load_plan("/nonexistent/plan.json")


def test_specs_are_frozen():
    spec = FaultPlan.from_dict(minimal()).faults[0]
    with pytest.raises(AttributeError):
        spec.at_ns = 0
    assert isinstance(spec, FaultSpec)
