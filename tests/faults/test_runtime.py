"""Process-wide (ambient) fault-plan installation."""

import json
import random

import pytest

from repro.core.config import JugglerConfig
from repro.core.juggler import JugglerGRO
from repro.fabric.topology import build_netfpga_pair
from repro.faults import runtime
from repro.faults.injectors import FaultInjector
from repro.faults.plan import FaultPlan
from repro.sim.engine import Engine

PLAN = FaultPlan.from_dict({"name": "ambient", "seed": 2, "faults": [
    {"name": "l", "kind": "loss", "at_us": 10, "duration_us": 10,
     "params": {"p": 0.5}}]})


@pytest.fixture(autouse=True)
def _clean_runtime(monkeypatch):
    monkeypatch.delenv(runtime.ENV_PLAN, raising=False)
    runtime.uninstall()
    yield
    runtime.uninstall()


def _testbed():
    return build_netfpga_pair(Engine(), random.Random(0),
                              lambda cb: JugglerGRO(cb, JugglerConfig()))


def test_no_plan_by_default():
    assert runtime.current_plan() is None
    bed = _testbed()
    assert bed.faults is None
    # The switch queues deliver straight into the receiver: no injector, no
    # adapter, not one extra frame on the per-packet call stack.
    assert bed.switch.fast_queue.sink is bed.receiver
    assert bed.switch.slow_queue.sink is bed.receiver


def test_install_and_uninstall():
    runtime.install(PLAN)
    assert runtime.current_plan() is PLAN
    runtime.uninstall()
    assert runtime.current_plan() is None


def test_injecting_scopes_the_plan():
    with runtime.injecting(PLAN) as plan:
        assert plan is PLAN
        assert runtime.current_plan() is PLAN
    assert runtime.current_plan() is None


def test_installed_plan_arms_the_testbed():
    with runtime.injecting(PLAN):
        bed = _testbed()
    assert bed.faults is not None
    assert bed.faults.plan is PLAN
    # The wire chain sits between the switch queues and the receiver.
    assert isinstance(bed.switch.fast_queue.sink, FaultInjector)
    assert bed.switch.fast_queue.sink.sink is bed.receiver


def test_explicit_plan_beats_the_ambient_one():
    other = FaultPlan.from_dict({"name": "explicit", "faults": [
        {"name": "b", "kind": "blackhole", "at_us": 0, "duration_us": 1}]})
    with runtime.injecting(PLAN):
        bed = build_netfpga_pair(
            Engine(), random.Random(0),
            lambda cb: JugglerGRO(cb, JugglerConfig()),
            fault_plan=other)
    assert bed.faults is not None and bed.faults.plan is other


def test_env_var_plan_is_loaded_and_cached(tmp_path, monkeypatch):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(PLAN.to_dict()))
    monkeypatch.setenv(runtime.ENV_PLAN, str(path))
    first = runtime.current_plan()
    assert first is not None
    assert first.name == "ambient"
    assert runtime.current_plan() is first  # cached per path
    monkeypatch.delenv(runtime.ENV_PLAN)
    assert runtime.current_plan() is None


def test_committed_ci_plan_parses():
    plan = FaultPlan.from_file("scripts/specs/chaos_plan.json")
    assert plan.name == "ci-chaos"
    layers = {spec.layer for spec in plan.faults}
    assert layers == {"wire", "link", "nic", "host"}  # every layer covered
