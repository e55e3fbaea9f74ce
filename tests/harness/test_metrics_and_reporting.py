"""Percentiles, histograms, samplers, tables, GRO factory."""

import pytest

from repro.core.chained_gro import ChainedGRO
from repro.core.juggler import JugglerGRO
from repro.core.presto_gro import PrestoGRO
from repro.core.standard_gro import StandardGRO
from repro.harness.experiment import GroKind, make_gro_factory
from repro.harness.metrics import (
    Histogram,
    Sampler,
    ThroughputProbe,
    mean,
    percentile,
    percentiles,
)
from repro.harness.reporting import banner, format_table
from repro.sim.engine import Engine
from repro.sim.time import US


def test_mean():
    assert mean([1, 2, 3]) == 2.0
    assert mean([]) == 0.0


def test_percentile_basic():
    data = list(range(1, 101))
    assert percentile(data, 50) == pytest.approx(50.5)
    assert percentile(data, 0) == 1
    assert percentile(data, 100) == 100
    assert percentile(data, 99) == pytest.approx(99.01)


def test_percentile_unsorted_input():
    assert percentile([5, 1, 3], 50) == 3


def test_percentile_single_value():
    assert percentile([42], 99) == 42.0


def test_percentile_empty():
    assert percentile([], 99) == 0.0


def test_percentile_validates_q():
    with pytest.raises(ValueError):
        percentile([1], 101)


def test_percentile_validates_q_on_empty_input():
    with pytest.raises(ValueError):
        percentile([], 150)


def test_percentiles_matches_repeated_percentile():
    data = [7, 1, 9, 4, 2, 8, 3, 6, 5, 10]
    qs = (0, 25, 50, 90, 99, 100)
    assert percentiles(data, qs) == [percentile(data, q) for q in qs]


def test_percentiles_preserves_order_of_qs():
    assert percentiles(list(range(1, 101)), (99, 50)) == [
        pytest.approx(99.01), pytest.approx(50.5)]


def test_percentiles_empty_and_validation():
    assert percentiles([], (50, 99)) == [0.0, 0.0]
    with pytest.raises(ValueError):
        percentiles([1, 2], (50, 101))


def test_percentiles_validates_q_on_empty_input():
    with pytest.raises(ValueError):
        percentiles([], (50, 101))


def test_histogram_counts_and_fraction():
    hist = Histogram()
    for v in [0, 1, 1, 2, 5]:
        hist.add(v)
    assert hist.total == 5
    assert hist.fraction_at_most(1) == pytest.approx(3 / 5)
    assert hist.fraction_at_most(4) == pytest.approx(4 / 5)
    assert hist.fraction_at_most(5) == 1.0


def test_histogram_bin_width():
    hist = Histogram(bin_width=10)
    hist.add(5)
    hist.add(15)
    assert hist.fraction_at_most(9) == 0.5  # 9 and 5 share bucket 0
    assert hist.fraction_at_most(10) == 1.0


def test_histogram_empty_fraction():
    assert Histogram().fraction_at_most(10) == 0.0


def test_sampler_periodic_collection():
    engine = Engine()
    values = iter(range(100))
    sampler = Sampler(engine, lambda: next(values), 10 * US)
    sampler.start()
    engine.run_until(55 * US)
    assert sampler.values() == [0, 1, 2, 3, 4]
    assert [t for t, _ in sampler.samples] == [10 * US, 20 * US, 30 * US,
                                               40 * US, 50 * US]


def test_sampler_stop_at():
    engine = Engine()
    sampler = Sampler(engine, lambda: 1.0, 10 * US, stop_at_ns=30 * US)
    sampler.start()
    engine.run_until(100 * US)
    assert len(sampler.values()) == 3


def test_throughput_probe_diffs_counter():
    counter = {"bytes": 0}
    probe = ThroughputProbe(lambda: counter["bytes"], interval_ns=1000)
    counter["bytes"] = 1250  # 1250 B over 1000 ns = 10 Gb/s
    assert probe() == pytest.approx(10.0)
    counter["bytes"] = 1250  # no progress
    assert probe() == 0.0


def test_format_table_alignment():
    text = format_table(["a", "bb"], [(1, 2.5), (10, 3.25)])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].endswith("bb")
    assert "3.250" in lines[3]


def test_banner_contains_title():
    assert "hello" in banner("hello")


def test_factory_builds_each_kind():
    expected = {
        GroKind.JUGGLER: JugglerGRO,
        GroKind.VANILLA: StandardGRO,
        GroKind.CHAINED: ChainedGRO,
        GroKind.PRESTO: PrestoGRO,
    }
    for kind, cls in expected.items():
        engine = make_gro_factory(kind)(lambda s: None)
        assert isinstance(engine, cls)

