"""The cell builder: engine-kind resolution, traffic RNG discipline, the
measured host, and the guard that keeps it the only construction site."""

import ast
import dataclasses
import os
import random

import pytest

import repro
from repro.experiments import cpu_overhead
from repro.experiments.cell import Cell
from repro.fabric.routing import EcmpRouting
from repro.harness.experiment import GroKind
from repro.tcp.config import TcpConfig

SRC = os.path.dirname(os.path.abspath(repro.__file__))
TIMEOUTS = dict(inseq_us=52, ofo_us=300)


def test_gro_kind_of_resolves_both_vocabularies():
    assert GroKind.of(GroKind.CHAINED) is GroKind.CHAINED
    assert GroKind.of("juggler") is GroKind.JUGGLER
    assert GroKind.of("standard") is GroKind.VANILLA
    assert GroKind.of("presto") is GroKind.PRESTO
    assert GroKind.of("chained") is GroKind.CHAINED
    with pytest.raises(ValueError, match="unknown GRO engine: 'bbr'"):
        GroKind.of("bbr")
    with pytest.raises(ValueError, match="unknown GRO engine"):
        Cell(0, "bbr", **TIMEOUTS)  # raised when the factory is built


def test_paced_flows_draws_once_per_flow_in_flow_order():
    n, total_gbps, nbytes = 8, 4.0, 1 << 20
    cell = Cell(3, GroKind.JUGGLER, **TIMEOUTS)
    bed = cell.pair("fabric")
    rng, twin = random.Random(5), random.Random(5)
    conns = cell.paced_flows([bed.sender], bed.receiver, n, total_gbps, 5000,
                             TcpConfig(), rng, nbytes)

    period = round(64 * 1024 * 8 / (total_gbps / n))
    offsets = [twin.randrange(period) for _ in range(n)]
    assert rng.getstate() == twin.getstate()  # n draws, nothing else
    assert [c.flow.sport for c in conns] == list(range(5000, 5000 + n))
    assert cell.conns == conns

    cut = sorted(offsets)[n // 2]
    cell.engine.run_until(cut)
    started = [c.sender.data_target == nbytes for c in conns]
    assert started == [offset <= cut for offset in offsets]


def test_measure_host_restricts_gro_counters_and_cpu():
    cell = Cell(1, GroKind.JUGGLER, cpu=True, **TIMEOUTS)
    net = cell.clos(EcmpRouting, 40.0, n_tors=2, hosts_per_tor=2)
    assert cell.measured == net.hosts
    assert all(h.app_core is None for h in net.hosts)

    receiver = net.hosts[2]
    cell.measure_host(receiver)
    assert cell.gro_engines() == receiver.gro_engines
    assert receiver.app_core is cell.app_core
    # The RX core is priced from every engine the factory built.
    assert cell.rx_engines == [g for h in net.hosts for g in h.gro_engines]
    assert all(h.app_core is None for h in net.hosts if h is not receiver)

    for conn in cell.flows(net.hosts[0], net.hosts[3], 1, 1000):
        conn.send(1 << 16)  # traffic to an unmeasured host
    assert cell.measure(0, 1_000_000).packets == 0
    assert net.hosts[3].gro_engines[0].stats.packets > 0


def test_run_figure_carries_every_base_field():
    """A field of a non-default ``base`` other than the figure's axes
    survives into each point's params."""
    from repro.campaign import registry
    from repro.campaign.spec import CampaignSpec, ExperimentSpec, expand

    base = dict(
        target_gbps=7.0, uplink_gbps=25.0, n_spines=3, background_gbps=1.5,
        inseq_timeout_us=21, ofo_timeout_us=77, warmup_ms=1, measure_ms=2,
        seed=99)
    axes = {"flow_counts", "reorderings", "kinds"}
    defaults = cpu_overhead.CpuOverheadParams()
    fixed = [f.name for f in dataclasses.fields(defaults)
             if f.name not in axes]
    assert sorted(fixed) == sorted(base)
    assert all(base[name] != getattr(defaults, name) for name in fixed)

    adapter = registry.get("fig10")
    tasks = expand(CampaignSpec(name="t", experiments=(
        ExperimentSpec("fig10", overrides=base,
                       grid={"num_flows": [16]}),)))
    assert [(t.point["reordering"], t.point["kind"]) for t in tasks] == [
        (False, "vanilla"), (False, "juggler"),
        (True, "vanilla"), (True, "juggler")]
    for task in tasks:
        params = adapter.build_point_params(task.base, task.seed, task.point)
        assert params.flow_counts == (16,)
        assert params.reorderings == (task.point["reordering"],)
        assert params.kinds == (task.point["kind"],)
        for name in fixed:
            assert getattr(params, name) == base[name]


def _calls(path):
    with open(path) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            yield getattr(func, "id", getattr(func, "attr", ""))


def test_cell_is_the_only_construction_site():
    """Experiments reach Engine and the topology builders only through
    cell.py, and GRO engines only through harness/experiment.py."""
    builders = {"Engine", "build_netfpga_pair", "build_clos",
                "build_priority_dumbbell"}
    engines = {"JugglerGRO", "StandardGRO", "PrestoGRO", "ChainedGRO"}
    exp_dir = os.path.join(SRC, "experiments")
    modules = [os.path.join(exp_dir, name)
               for name in sorted(os.listdir(exp_dir))
               if name.endswith(".py")]
    modules.append(os.path.join(SRC, "faults", "experiments.py"))
    assert len(modules) >= 18
    for path in modules:
        called = set(_calls(path))
        if not path.endswith("cell.py"):
            assert not called & builders, (path, called & builders)
        assert not called & engines, (path, called & engines)
    harness = set(_calls(os.path.join(SRC, "harness", "experiment.py")))
    assert engines <= harness
