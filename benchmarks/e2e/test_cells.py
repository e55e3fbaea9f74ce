"""The benchmark times the cells users run, and tracing does not perturb them.

Run on demand (``benchmarks/`` is outside ``testpaths``)::

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_cells.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [p for p in (os.path.join(ROOT, "src"), HERE)
                if p not in sys.path]

import cells  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
from repro.campaign.spec import derive_seed  # noqa: E402
from repro.core.flush import FlushReason  # noqa: E402
from repro.experiments import (  # noqa: E402
    cc_reordering,
    fig13_ofo_timeout_throughput as fig13,
    fig15_active_flows as fig15,
    host_vs_fabric,
)
from repro.experiments.common import gbps  # noqa: E402
from repro.harness.metrics import percentile  # noqa: E402
from repro.sim.time import MS  # noqa: E402


def _run_in_two_steps(cell: cells.Cell, warmup_ns: int) -> int:
    """Run like the experiments do (warm-up, snapshot, measure); returns the
    bytes delivered by the end of the warm-up."""
    cell.engine.run_until(warmup_ns)
    delivered = cell.delivered_bytes()
    cell.run()
    return delivered


# -- each bench cell, at its experiment's own durations and seed, is that
# -- experiment's cell --------------------------------------------------------


def test_fig13_cell_reproduces_the_experiment_row():
    params = fig13.Fig13Params()
    point = fig13.run_cell(params, 500, 300)
    assert point.throughput_gbps == 5.8576256
    assert point.ofo_flushes == 4413

    cell = cells.fig13_cell(params.seed,
                            (params.warmup_ms + params.measure_ms) * MS)
    before = _run_in_two_steps(cell, params.warmup_ms * MS)
    assert ((cell.delivered_bytes() - before) * 8 / (params.measure_ms * MS)
            == point.throughput_gbps)
    assert cells.flush_count(cell, FlushReason.OFO_TIMEOUT) == point.ofo_flushes


def test_fig15_cell_reproduces_the_experiment_row():
    params = fig15.Fig15Params()
    point = fig15.run_cell(params, 256, 500)
    cell = cells.fig15_cell(params.seed,
                            (params.warmup_ms + params.measure_ms) * MS)
    cell.run()
    values = cell.sampler.values()
    assert percentile(values, 99) == point.p99_active_flows
    assert sum(values) / len(values) == point.mean_active_flows
    assert int(max(values)) == point.max_active_flows


def test_clos_cell_reproduces_the_experiment_row():
    params = host_vs_fabric.HostFabricParams()
    point = host_vs_fabric.run_point(params, engine="juggler",
                                     routing="per_packet", load=3, fault=1)
    cell = cells.clos_cell(derive_seed(params.seed, "host_vs_fabric", "3:1"),
                           params.warmup_ms, params.measure_ms)
    before = _run_in_two_steps(cell, params.warmup_ms * MS)
    assert (round(gbps(cell.delivered_bytes() - before,
                       params.measure_ms * MS), 4) == point.goodput_gbps)
    assert (sum(c.receiver.ooo_segments for c in cell.conns)
            == point.tcp_ooo_segments)
    assert (cells.flush_count(cell, FlushReason.OFO_TIMEOUT)
            == point.ofo_timeout_flushes)
    assert sum(link.stats.drops for link in cell.links) == point.drops
    assert (sum(c.sender.retransmitted_packets for c in cell.conns)
            == point.retx_packets)
    assert (sum(d.stats.reordered_packets for d in cell.detectors)
            == point.det_reordered)


def test_cc_cell_reproduces_the_experiment_row():
    params = cc_reordering.CcParams()
    point = cc_reordering.run_point(params, cc="bbr", intensity=0,
                                    engine="standard")
    cell = cells.cc_cell(derive_seed(params.seed, "cc_reordering", "0"),
                         params.duration_ms * MS)
    before = _run_in_two_steps(cell, params.warmup_ms * MS)
    window = (params.duration_ms - params.warmup_ms) * MS
    assert (round(gbps(cell.delivered_bytes() - before, window), 4)
            == point.goodput_gbps)
    assert (sum(c.sender.dupacks_received for c in cell.conns)
            == point.dupacks)
    assert (sum(c.receiver.ooo_segments for c in cell.conns)
            == point.tcp_ooo_segments)
    assert sum(c.sender.rtos for c in cell.conns) == point.rtos


# -- the wrappers do not perturb the simulation -------------------------------


@pytest.fixture(scope="module")
def pinned() -> dict:
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f)


@pytest.mark.parametrize("name", sorted(cells.WORKLOADS))
def test_traced_digest_equals_untraced_and_pinned(name, pinned):
    untraced = cells.WORKLOADS[name].build()
    untraced.run()
    rec = spans.SpanRecorder()
    with rec:
        traced = cells.WORKLOADS[name].build()
        rec.begin_trace()
        traced.run()
    fields = traced.digest_fields()
    assert cells.diff_fields(untraced.digest_fields(), fields) == []
    assert cells.digest_of(fields) == pinned[name]["sha256"]
    assert traced.goodput_gbps() == pinned[name]["goodput_gbps"]

    # Self times partition the root span exactly, and the nine layers own
    # all but a sliver of it.
    first, last = rec.trace_bounds()[0]
    summary = rec.summarise(first, last)
    layers = rec.by_layer(summary)
    root = rec.ends[first] - rec.starts[first]
    assert rec.names[rec.name_ids[first]][0] == "Engine.run_until"
    assert sum(ns for ns, _ in layers.values()) == root
    assert layers.get(spans.OTHER, (0, 0))[0] <= 0.05 * root

    # Uninstalled: a fresh cell records nothing.
    spans_before = len(rec.starts)
    again = cells.WORKLOADS[name].build()
    again.engine.run_until(again.stop_ns // 20)
    assert len(rec.starts) == spans_before


def test_digest_is_stable_under_pythonhashseed():
    probe = (
        "import sys; sys.path[:0] = [%r, %r]; import cells; "
        "cell = cells.fig15_cell(cells.UNIVERSE_SEED, 12_000_000, "
        "cells.port_offset_of(3)); cell.run(); "
        "print(cells.digest_of(cell.digest_fields()))"
        % (os.path.join(ROOT, "src"), HERE))
    digests = set()
    for hashseed in ("0", "1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              stdout=subprocess.PIPE, text=True, check=True,
                              timeout=120)
        digests.add(done.stdout.strip())
    assert len(digests) == 1


def test_seed_draws_the_flow_ports_and_keeps_the_offered_work():
    a = cells.fig15_cell(cells.UNIVERSE_SEED, 8 * MS, cells.port_offset_of(1))
    b = cells.fig15_cell(cells.UNIVERSE_SEED, 8 * MS, cells.port_offset_of(2))
    assert a.conns[0].flow != b.conns[0].flow
    a.run()
    b.run()
    sent = [sum(c.sender.packets_sent for c in cell.conns) for cell in (a, b)]
    assert abs(sent[0] - sent[1]) <= 0.02 * sent[0]


# -- BENCHMARK.json says what the tables say ----------------------------------


def test_manifest_matches_the_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert manifest["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert ([(w["name"], w["why"]) for w in manifest["workloads"]]
            == [(w.name, w.why) for w in cells.WORKLOADS.values()])
    assert ([(m["name"], m["unit"], m["better"], m["bound"])
             for m in manifest["end_to_end"]]
            == [(m.name, m.unit, m.better, m.bound)
                for m in metrics.END_TO_END])
    assert ([(m["name"], m["unit"], m["better"])
             for m in manifest["per_layer"]]
            == [(m.name, m.unit, m.better) for m in metrics.PER_LAYER])
