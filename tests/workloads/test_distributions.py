"""Empirical flow-size distributions."""

import random

import pytest

from repro.workloads.distributions import (
    DATA_MINING,
    WEB_SEARCH,
    EmpiricalSizeDistribution,
)


def test_web_search_quantiles_match_knots():
    rng = random.Random(1)
    samples = sorted(WEB_SEARCH.sample(rng) for _ in range(20_000))
    # ~15% of flows are <= 6 KB per the CDF's first knot.
    p15 = samples[int(0.15 * len(samples))]
    assert 4_000 < p15 < 9_000
    # Median sits between the 0.40 and 0.53 knots.
    median = samples[len(samples) // 2]
    assert 33_000 < median < 133_000


def test_data_mining_mice_heavy():
    rng = random.Random(2)
    samples = [DATA_MINING.sample(rng) for _ in range(20_000)]
    mice = sum(1 for s in samples if s <= 100)
    assert 0.45 < mice / len(samples) < 0.55  # half the flows are tiny
    assert max(samples) > 10_000_000  # with a giant elephant tail


def test_samples_positive_and_bounded():
    rng = random.Random(3)
    for dist, cap in ((WEB_SEARCH, 20_000_000), (DATA_MINING, 1_000_000_000)):
        for _ in range(1_000):
            s = dist.sample(rng)
            assert 1 <= s <= cap


def test_mean_between_extremes():
    assert 100_000 < WEB_SEARCH.mean() < 5_000_000
    assert 1_000_000 < DATA_MINING.mean() < 100_000_000


def test_custom_cdf():
    dist = EmpiricalSizeDistribution(((1_000, 0.5), (2_000, 1.0)))
    rng = random.Random(4)
    samples = [dist.sample(rng) for _ in range(5_000)]
    assert all(1 <= s <= 2_000 for s in samples)
    assert 900 < sorted(samples)[len(samples) // 2] < 1_300


def test_validation():
    with pytest.raises(ValueError):
        EmpiricalSizeDistribution(())
    with pytest.raises(ValueError):
        EmpiricalSizeDistribution(((100, 0.5),))  # doesn't reach 1.0
    with pytest.raises(ValueError):
        EmpiricalSizeDistribution(((100, 0.5), (50, 1.0)))  # sizes decrease
    with pytest.raises(ValueError):
        EmpiricalSizeDistribution(((100, 1.5),))  # bad probability


def test_deterministic_given_seed():
    a = [WEB_SEARCH.sample(random.Random(9)) for _ in range(10)]
    b = [WEB_SEARCH.sample(random.Random(9)) for _ in range(10)]
    assert a == b
