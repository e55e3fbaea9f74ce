"""The fdir_reordering family: wiring, determinism, and the headline claim."""

import dataclasses

import pytest

from repro.campaign import registry
from repro.experiments import fdir_reordering as fdir
from repro.faults.experiments import _PRESETS
from repro.faults.plan import KINDS

TINY = fdir.FdirParams(flow_counts=(4,), churn_levels=(0, 2),
                       engines=("juggler",), duration_ms=8, warmup_ms=2,
                       num_queues=4, fdir_sample_rate=4)


def run_cell(policy, churn, params=TINY):
    return fdir.run_point(params, policy=policy, flow_count=4, churn=churn,
                          engine="juggler")


# -- catalog wiring -----------------------------------------------------------


def test_steering_churn_is_in_the_fault_catalog_with_presets():
    assert "steering_churn" in KINDS
    layer, defaults = KINDS["steering_churn"]
    assert layer == "nic"
    assert set(defaults) == {"migrate_fraction", "flush_table"}
    assert len(_PRESETS["steering_churn"]) == 3


def test_fdir_reordering_is_registered_as_hidden_grid():
    adapter = registry.get("fdir_reordering")
    assert adapter.hidden
    assert adapter.axis_names() == ("policy", "flow_count", "churn", "engine")
    assert "fdir_reordering" not in registry.names()
    assert "fdir_reordering" in registry.names(include_hidden=True)


def test_churn_plan_levels():
    with pytest.raises(ValueError):
        fdir.churn_plan(99, start_us=0, stop_us=1000, seed=1)
    assert fdir.churn_plan(0, start_us=0, stop_us=1000, seed=1) is None
    plan = fdir.churn_plan(2, start_us=2000, stop_us=30_000, seed=1)
    assert plan is not None
    (spec,) = plan.faults
    assert spec.kind == "steering_churn"
    assert spec.repeats == 14
    assert spec.param("migrate_fraction") == 0.5


def test_build_policy_rejects_unknown():
    with pytest.raises(ValueError):
        fdir.build_policy("toeplitz", TINY, None, [])


# -- the headline claim -------------------------------------------------------


def test_flow_director_self_inflicts_reordering_and_rss_does_not():
    """In-order fabric: only the Flow Director arm reorders."""
    rss = run_cell("rss", 2)
    static = run_cell("static", 2)
    fd = run_cell("flow_director", 2)
    for clean in (rss, static):
        assert clean.migrations == 0
        assert clean.cross_queue_events == 0
        assert clean.tcp_ooo_segments == 0
    assert fd.migrations > 0
    assert fd.cross_queue_events > 0
    assert fd.tcp_ooo_segments > 0


def test_churn_zero_still_has_install_handoffs_but_no_migrations():
    """Level 0: no rebalances, so no rule ever moves — but first-install
    handoffs (RSS fallback -> affinity home) are real FDir behaviour."""
    fd = run_cell("flow_director", 0)
    assert fd.migrations == 0


# -- determinism (the campaign fingerprint relies on this) --------------------


def test_cells_are_byte_identical_across_runs():
    a = run_cell("flow_director", 2)
    b = run_cell("flow_director", 2)
    assert dataclasses.asdict(a) == dataclasses.asdict(b)


def test_adapter_path_matches_direct_run_point():
    """The campaign worker route produces the exact same row."""
    adapter = registry.get("fdir_reordering")
    base = {f.name: getattr(TINY, f.name)
            for f in dataclasses.fields(TINY)}
    point = {"policy": "flow_director", "flow_count": 4, "churn": 2,
             "engine": "juggler"}
    for axis, _ in fdir.POINT_AXES:
        base.pop({"policy": "policies", "flow_count": "flow_counts",
                  "churn": "churn_levels", "engine": "engines"}[axis], None)
    rows = adapter.execute(base, None, point)
    assert rows == [dataclasses.asdict(run_cell("flow_director", 2))]


def test_seed_excludes_policy_and_engine():
    """All arms of one (flow_count, churn) cell face identical randomness:
    the RSS and static arms of the same cell see the same workload."""
    rss = run_cell("rss", 0)
    static = run_cell("static", 0)
    assert rss.rpcs_completed == static.rpcs_completed
