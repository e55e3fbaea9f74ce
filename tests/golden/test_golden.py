"""Golden rows: every registered experiment, commit to commit, field for field.

``rows.json`` holds, for each experiment family, one to four reduced-size
cells that between them touch every GRO engine kind and every routing the
module offers, stored as the ``dataclasses.asdict`` of the point the module
returned (enums as ``.value``, floats at full ``repr`` precision).  The
comparison is exact: a behaviour-preserving change keeps this file
untouched, and a change that means to move a row re-records it with::

    PYTHONPATH=src python -m pytest tests/golden --update-golden -s

which rewrites the file and prints the same ``family[cell].field: old ->
new`` lines a failing run prints.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os
from typing import Callable, Dict, List

import pytest

from repro.campaign import registry
from repro.experiments import (
    ablations,
    cc_reordering,
    cpu_overhead,
    fdir_reordering,
    fig01_bandwidth_guarantee as fig01,
    fig12_inseq_timeout as fig12,
    fig13_ofo_timeout_throughput as fig13,
    fig14_ofo_timeout_latency as fig14,
    fig15_active_flows as fig15,
    fig16_active_list_histogram as fig16,
    fig18_bandwidth_sweep as fig18,
    fig20_load_balancing as fig20,
    flow_scheduling,
    host_vs_fabric,
    sec31_chained_gro_cost as sec31,
    sec512_latency_overhead as sec512,
)
from repro.faults import experiments as faults_matrix

ROWS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "rows.json")

_FIG01 = fig01.Fig01Params(before_ms=4, after_ms=8)
_CPU = cpu_overhead.CpuOverheadParams(warmup_ms=2, measure_ms=4)
_FIG12 = fig12.Fig12Params(warmup_ms=3, measure_ms=5)
_FIG13 = fig13.Fig13Params(warmup_ms=3, measure_ms=5)
_FIG14 = fig14.Fig14Params(duration_ms=25)
_FIG15 = fig15.Fig15Params(warmup_ms=2, measure_ms=5)
_FIG16 = fig16.Fig16Params(num_flows=32, warmup_ms=2, measure_ms=4)
_FIG18 = fig18.Fig18Params(ramp_ms=5, measure_ms=10)
_FIG20 = fig20.Fig20Params(warmup_ms=2, measure_ms=6)
_SEC31 = sec31.Sec31Params(warmup_ms=2, measure_ms=4)
_SEC512 = sec512.Sec512Params(duration_ms=5)
_ABL = ablations.AblationParams(num_flows=16, duration_ms=8)
_SCHED = flow_scheduling.SchedulingParams(warmup_ms=2, measure_ms=6)
_FDIR = fdir_reordering.FdirParams(duration_ms=8, warmup_ms=2)
_CC = cc_reordering.CcParams(duration_ms=8, warmup_ms=2)
_HVF = host_vs_fabric.HostFabricParams(warmup_ms=1, measure_ms=4)
_MATRIX = faults_matrix.MatrixParams(duration_ms=8, warmup_ms=2,
                                     concurrent_flows=2,
                                     sample_interval_us=200)


def _hvf(engine: str, routing: str, load: int, fault: int) -> Callable:
    return lambda: host_vs_fabric.run_point(
        _HVF, engine=engine, routing=routing, load=load, fault=fault)


#: family -> cell label -> thunk returning a point (or a list of points).
CELLS: Dict[str, Dict[str, Callable]] = {
    "fig01": {
        "juggler": lambda: fig01.run_point(_FIG01, kind="juggler"),
        "vanilla": lambda: fig01.run_point(_FIG01, kind="vanilla"),
    },
    "fig09": {
        "1flow-spray-vanilla": lambda: cpu_overhead.run_point(
            _CPU, num_flows=1, reordering=True, kind="vanilla"),
    },
    "fig10": {
        "16flows-spray-juggler": lambda: cpu_overhead.run_point(
            _CPU, num_flows=16, reordering=True, kind="juggler"),
        "16flows-ecmp-vanilla": lambda: cpu_overhead.run_point(
            _CPU, num_flows=16, reordering=False, kind="vanilla"),
    },
    "fig12": {
        "tau250-inseq0": lambda: fig12.run_point(
            _FIG12, reorder_delay_us=250, inseq_timeout_us=0),
        "tau500-inseq52": lambda: fig12.run_point(
            _FIG12, reorder_delay_us=500, inseq_timeout_us=52),
    },
    "fig13": {
        "tau500-ofo100": lambda: fig13.run_point(
            _FIG13, reorder_delay_us=500, ofo_timeout_us=100),
        "tau500-ofo600": lambda: fig13.run_point(
            _FIG13, reorder_delay_us=500, ofo_timeout_us=600),
    },
    "fig14": {
        "tau250-ofo400": lambda: fig14.run_point(
            _FIG14, reorder_delay_us=250, ofo_timeout_us=400),
    },
    "fig15": {
        "64flows-tau500": lambda: fig15.run_point(
            _FIG15, reorder_delay_us=500, concurrent_flows=64),
    },
    "fig16": {
        "rx40g": lambda: fig16.run_point(_FIG16, receiver_port_gbps=40.0),
        "rx10g": lambda: fig16.run_point(_FIG16, receiver_port_gbps=10.0),
    },
    "fig18": {
        "juggler-15g": lambda: fig18.run_point(
            _FIG18, kind="juggler", guarantee_gbps=15.0),
        "vanilla-15g": lambda: fig18.run_point(
            _FIG18, kind="vanilla", guarantee_gbps=15.0),
    },
    "fig20": {
        policy: (lambda policy=policy:
                 fig20.run_point(_FIG20, policy=policy, load_pct=70))
        for policy in ("per-flow-ecmp", "per-tso", "per-packet", "flowlet")
    },
    "sec31": {
        kind: (lambda kind=kind: sec31.run_point(_SEC31, kind=kind))
        for kind in ("vanilla", "chained", "juggler")
    },
    "sec512": {
        kind: (lambda kind=kind: sec512.run_point(_SEC512, kind=kind))
        for kind in ("juggler", "vanilla")
    },
    "ablations": {
        study: (lambda configs=configs: [
            ablations.run_point(_ABL, config=config) for config in configs])
        for study, configs in (
            ("buildup", ("buildup=on", "buildup=off")),
            ("eviction", ("evict=inactive_first", "evict=fifo",
                          "evict=active_first")),
            ("table-size", ("capacity=2", "capacity=16")))
    },
    "scheduling": {
        "none-juggler": lambda: flow_scheduling.run_point(
            _SCHED, config="none/juggler"),
        "pias-vanilla": lambda: flow_scheduling.run_point(
            _SCHED, config="pias/vanilla"),
    },
    "fdir_reordering": {
        "fdir-8-churn2-juggler": lambda: fdir_reordering.run_point(
            _FDIR, policy="flow_director", flow_count=8, churn=2,
            engine="juggler"),
        "rss-8-churn0-standard": lambda: fdir_reordering.run_point(
            _FDIR, policy="rss", flow_count=8, churn=0, engine="standard"),
        "static-8-churn2-presto": lambda: fdir_reordering.run_point(
            _FDIR, policy="static", flow_count=8, churn=2, engine="presto"),
    },
    "cc_reordering": {
        "cubic-3-standard": lambda: cc_reordering.run_point(
            _CC, cc="cubic", intensity=3, engine="standard"),
        "bbr-0-juggler": lambda: cc_reordering.run_point(
            _CC, cc="bbr", intensity=0, engine="juggler"),
        "reno-3-presto": lambda: cc_reordering.run_point(
            _CC, cc="reno", intensity=3, engine="presto"),
    },
    "host_vs_fabric": {
        "juggler-per_packet-3-1": _hvf("juggler", "per_packet", 3, 1),
        "standard-flowcut-3-0": _hvf("standard", "flowcut", 3, 0),
        "juggler-flowlet-3-1": _hvf("juggler", "flowlet", 3, 1),
        "standard-ecmp-1-0": _hvf("standard", "ecmp", 1, 0),
    },
    "faults_matrix": {
        "loss-2-juggler": lambda: faults_matrix.run_point(
            _MATRIX, fault_kind="loss", intensity=2, engine="juggler"),
        "steering_churn-2-standard": lambda: faults_matrix.run_point(
            _MATRIX, fault_kind="steering_churn", intensity=2,
            engine="standard"),
        "queue_saturation-3-presto": lambda: faults_matrix.run_point(
            _MATRIX, fault_kind="queue_saturation", intensity=3,
            engine="presto"),
    },
}


def jsonable(value):
    """``dataclasses.asdict`` shape with enums as ``.value`` and tuples as
    lists, so a fresh row compares equal to its JSON round trip."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return value


def diff_rows(path: str, old, new, out: List[str]) -> List[str]:
    """``path.field: old -> new`` for every leaf that differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            diff_rows(f"{path}.{key}", old.get(key), new.get(key), out)
    elif (isinstance(old, list) and isinstance(new, list)
          and len(old) == len(new)):
        for i, (a, b) in enumerate(zip(old, new)):
            diff_rows(f"{path}[{i}]", a, b, out)
    elif old != new:
        out.append(f"{path}: {old!r} -> {new!r}")
    return out


@pytest.fixture(scope="module")
def golden(request):
    """The recorded rows; under ``--update-golden`` the tests fill in fresh
    ones and the file is rewritten when the module finishes."""
    with open(ROWS_PATH) as fh:
        recorded = json.load(fh)
    if not request.config.getoption("--update-golden"):
        yield recorded
        return
    fresh: Dict[str, Dict[str, object]] = {}
    yield fresh
    moved: List[str] = []
    for family, cells in fresh.items():
        for cell, row in cells.items():
            diff_rows(f"{family}[{cell}]",
                      recorded.get(family, {}).get(cell), row, moved)
        recorded.setdefault(family, {}).update(cells)
    ordered = {family: {cell: recorded[family][cell]
                        for cell in CELLS[family] if cell in recorded[family]}
               for family in CELLS if family in recorded}
    with open(ROWS_PATH, "w") as fh:
        json.dump(ordered, fh, indent=1)
        fh.write("\n")
    print(f"\nrewrote {ROWS_PATH}: {len(moved)} field(s) moved")
    for line in moved:
        print(line)


@pytest.mark.parametrize("family,cell", [
    (family, cell) for family, cells in CELLS.items() for cell in cells])
def test_golden_row(golden, request, family, cell):
    row = jsonable(CELLS[family][cell]())
    if request.config.getoption("--update-golden"):
        golden.setdefault(family, {})[cell] = row
        return
    assert family in golden and cell in golden[family], (
        f"{family}[{cell}] has no recorded row; run with --update-golden")
    moved = diff_rows(f"{family}[{cell}]", golden[family][cell], row, [])
    assert not moved, "golden row moved:\n" + "\n".join(moved)


def test_every_registered_experiment_has_a_golden_cell():
    registered = set(registry.names(include_hidden=True)) - {"selftest"}
    assert registered == set(CELLS)
