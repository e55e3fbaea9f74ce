"""``juggler-repro sweep``: one command for every grid family, and the
paired-arms seed rule it shares with campaign specs."""

import importlib
import json
from collections import defaultdict

import pytest

import repro.cli as cli
from repro.campaign import registry
from repro.campaign.spec import CampaignSpec, ExperimentSpec, expand
from repro.sim.rng import derive_cell_seed, derive_seed

PAIRED_FAMILIES = ("fdir_reordering", "cc_reordering", "host_vs_fabric",
                   "faults_matrix", "fig18", "sec31", "sec512")

#: family -> its cheapest cell, as a spec-file grid.
CHEAPEST_CELL = {
    "fdir_reordering": {"policy": ["rss"], "flow_count": [8], "churn": [0],
                        "engine": ["standard"]},
    "cc_reordering": {"cc": ["cubic"], "intensity": [3],
                      "engine": ["standard"]},
    "host_vs_fabric": {"engine": ["standard"], "routing": ["ecmp"],
                       "load": [1], "fault": [0]},
    "faults_matrix": {"fault_kind": ["loss"], "intensity": [1],
                      "engine": ["juggler"]},
    "fig13": {"reorder_delay_us": [250], "ofo_timeout_us": [1000]},
    "sec512": {"kind": ["juggler"]},
}


def table(out: str) -> str:
    """The rendered table: everything below the report banner."""
    return out[out.rindex("=====\n"):]


@pytest.mark.parametrize("family", sorted(CHEAPEST_CELL))
def test_sweep_runs_resumes_and_summarises(family, tmp_path, capsys):
    cell = CHEAPEST_CELL[family]
    flags = [arg for axis, values in cell.items()
             for arg in (f"--{axis}", ",".join(map(str, values)))]
    summary = tmp_path / "out.json"
    argv = ["sweep", family, *flags, "--store", str(tmp_path / "s.jsonl"),
            "--json", str(summary)]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert "ran 1," in first
    # Same store, same selection: every cell is already complete, and the
    # table re-rendered from the store is byte-identical.
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert "ran 0," in second
    assert family in first and len(table(first).splitlines()) >= 4
    assert table(first) == table(second)

    payload = json.loads(summary.read_text())
    assert set(payload) == {"spec", "planned", "skipped", "failed"}
    assert (payload["planned"], payload["skipped"], payload["failed"]) \
        == (1, 1, 0)
    (entry,) = payload["spec"]["experiments"]
    assert entry["experiment"] == family
    # The flags fill the spec-file grid under the same axis names.
    assert entry["grid"] == cell


def test_bare_sweep_lists_every_grid_family_with_its_axes(capsys):
    assert cli.main(["sweep"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for name, adapter in registry.ADAPTERS.items():
        listed = [line for line in lines if line.split()[:1] == [name]]
        assert len(listed) == 1, name
        for axis in adapter.axis_names():
            starred = axis + ("*" if axis in adapter.paired_axes else "")
            assert starred in listed[0].replace(",", " ").split()


def test_sweep_rejects_bad_selections(capsys):
    assert cli.main(["sweep", "no_such_family"]) == 2
    assert "unknown sweep family" in capsys.readouterr().err

    with pytest.raises(SystemExit) as unknown_axis:
        cli.main(["sweep", "cc_reordering", "--flow_count", "8"])
    assert unknown_axis.value.code == 2
    assert "--flow_count" in capsys.readouterr().err

    with pytest.raises(SystemExit) as bad_value:
        cli.main(["sweep", "cc_reordering", "--intensity", "high"])
    assert bad_value.value.code == 2
    assert "--intensity" in capsys.readouterr().err

    with pytest.raises(SystemExit) as bad_bool:
        cli.main(["sweep", "fig09", "--reordering", "maybe"])
    assert bad_bool.value.code == 2
    assert "invalid bool list value" in capsys.readouterr().err

    assert cli.main(["sweep", "cc_reordering", "--cc", ","]) == 2
    assert "empty grid axis 'cc'" in capsys.readouterr().err
    assert cli.main(["sweep", "cc_reordering", "--cc", "reno,reno"]) == 2
    assert "duplicate" in capsys.readouterr().err


def test_sweep_failure_is_final(tmp_path, capsys):
    # A bad axis value fails inside run_point.  The task is deterministic,
    # so it runs once, fails once, and the command exits 1.
    argv = ["sweep", "sec512", "--kind", "foo",
            "--store", str(tmp_path / "s.jsonl")]
    assert cli.main(argv) == 1
    out = capsys.readouterr().out
    failed = [line for line in out.splitlines() if "FAILED" in line
              and "sec512" in line and "kind=foo" in line]
    assert len(failed) == 1
    assert "unknown GRO engine: 'foo'" in failed[0]
    assert "retry" not in out
    assert "ran 1, ok 0, failed 1" in out


@pytest.mark.parametrize("family", PAIRED_FAMILIES)
def test_seeded_arms_of_one_cell_share_a_task_seed(family):
    adapter = registry.get(family)
    assert adapter.paired_axes
    tasks = expand(CampaignSpec(name="t", seed=5,
                                experiments=(ExperimentSpec(family),)))
    seeds_by_cell = defaultdict(set)
    for task in tasks:
        cell = tuple(value for axis, value in task.point.items()
                     if axis not in adapter.paired_axes)
        seeds_by_cell[cell].add(task.seed)
    assert len(seeds_by_cell) < len(tasks)
    # One seed per cell, whatever the arm ...
    assert all(len(seeds) == 1 for seeds in seeds_by_cell.values())
    # ... and a different one for every cell.
    assert len(set.union(*seeds_by_cell.values())) == len(seeds_by_cell)
    # The fingerprint still tells the arms apart.
    assert len({task.fingerprint for task in tasks}) == len(tasks)


@pytest.mark.parametrize("family, point, payload", [
    ("fdir_reordering", {"policy": "rss", "flow_count": 8, "churn": 2,
                         "engine": "juggler"}, "8:2"),
    ("cc_reordering", {"cc": "bbr", "intensity": 3, "engine": "standard"},
     "3"),
    ("host_vs_fabric", {"engine": "juggler", "routing": "per_packet",
                        "load": 3, "fault": 1}, "3:1"),
    ("faults_matrix", {"fault_kind": "loss", "intensity": 2,
                       "engine": "presto"}, "loss:2"),
])
def test_cell_seed_payload_is_the_unpaired_axes_in_order(family, point,
                                                         payload):
    # run_point's own seed rule, pinned: default-seed rows (and the
    # benchmarks/e2e digests) depend on exactly this payload.
    mod = importlib.import_module(registry.get(family).module)
    assert derive_cell_seed(11, family, mod.POINT_AXES, mod.PAIRED_AXES,
                            point) == derive_seed(11, family, payload)
