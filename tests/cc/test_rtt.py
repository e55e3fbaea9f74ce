"""RFC 6298 estimator: values pinned to the historical inlined arithmetic."""

import pytest

from repro.cc.rtt import RttEstimator
from repro.sim.time import MS, US


def test_first_sample_seeds_srtt_and_rttvar():
    rtt = RttEstimator()
    assert rtt.srtt is None and rtt.latest is None and rtt.samples == 0
    rtt.sample(100_000)
    assert rtt.srtt == 100_000
    assert rtt.rttvar == 50_000
    assert rtt.latest == 100_000
    assert rtt.samples == 1


def test_ewma_matches_the_inlined_sender_arithmetic():
    # The exact sequence the pre-split TcpSender._sample_rtt computed:
    # srtt = (7*srtt + rtt) // 8, rttvar = (3*rttvar + |err|) // 4.
    rtt = RttEstimator()
    srtt, rttvar = None, 0
    for sample in (100_000, 140_000, 90_000, 300_000, 100_000, 100_001):
        rtt.sample(sample)
        if srtt is None:
            srtt, rttvar = sample, sample // 2
        else:
            err = abs(sample - srtt)
            rttvar = (3 * rttvar + err) // 4
            srtt = (7 * srtt + sample) // 8
        assert rtt.srtt == srtt
        assert rtt.rttvar == rttvar
    # Pin the end state so a refactor can't silently change the arithmetic.
    assert rtt.srtt == 121_233
    assert rtt.rttvar == 55_563


def test_rto_before_any_sample_uses_twice_initial_rtt():
    rtt = RttEstimator()
    assert rtt.rto(min_rto=1 * MS, max_rto=100 * MS,
                   initial_rtt=200 * US) == 1 * MS  # clamped up to min_rto
    assert rtt.rto(min_rto=100 * US, max_rto=100 * MS,
                   initial_rtt=200 * US) == 400 * US


def test_rto_is_srtt_plus_four_rttvar_clamped():
    rtt = RttEstimator()
    rtt.sample(2 * MS)  # srtt=2ms, rttvar=1ms -> base 6ms
    assert rtt.rto(min_rto=1 * MS, max_rto=100 * MS,
                   initial_rtt=200 * US) == 6 * MS
    assert rtt.rto(min_rto=10 * MS, max_rto=100 * MS,
                   initial_rtt=200 * US) == 10 * MS
    assert rtt.rto(min_rto=1 * MS, max_rto=4 * MS,
                   initial_rtt=200 * US) == 4 * MS


def test_rto_backoff_multiplies_after_clamping_then_caps():
    # Historical order: clamp the base first, multiply, cap at max_rto.
    rtt = RttEstimator()
    rtt.sample(2 * MS)
    assert rtt.rto(min_rto=1 * MS, max_rto=100 * MS, initial_rtt=200 * US,
                   backoff=4) == 24 * MS
    assert rtt.rto(min_rto=1 * MS, max_rto=100 * MS, initial_rtt=200 * US,
                   backoff=64) == 100 * MS


def test_min_rtt_tracks_window_minimum():
    rtt = RttEstimator()
    rtt.sample(300 * US, now=0)
    rtt.sample(100 * US, now=1 * MS)
    rtt.sample(200 * US, now=2 * MS)
    assert rtt.min_rtt(2 * MS, horizon=10 * MS) == 100 * US
    # The 100 us sample ages out of the horizon; 200 us remains.
    assert rtt.min_rtt(20 * MS, horizon=10 * MS) == 200 * US


def test_min_rtt_with_empty_window_falls_back_to_latest():
    rtt = RttEstimator()
    rtt.sample(150 * US, now=0)
    assert rtt.min_rtt(100 * MS, horizon=1 * MS) == 150 * US


@pytest.mark.parametrize("backoff", [1, 2, 8])
def test_rto_monotone_in_backoff(backoff):
    rtt = RttEstimator()
    rtt.sample(1 * MS)
    base = rtt.rto(min_rto=1 * MS, max_rto=100 * MS, initial_rtt=200 * US)
    backed = rtt.rto(min_rto=1 * MS, max_rto=100 * MS, initial_rtt=200 * US,
                     backoff=backoff)
    assert backed == min(base * backoff, 100 * MS)
