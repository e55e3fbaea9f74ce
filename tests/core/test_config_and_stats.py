"""JugglerConfig validation and GroStats accounting."""

import pytest

from repro.core.config import JugglerConfig
from repro.core.flush import FlushReason
from repro.core.stats import GroStats
from repro.net.addr import FiveTuple

FLOW = FiveTuple(1, 2, 1000, 80)


def test_defaults_match_paper():
    config = JugglerConfig()
    assert config.inseq_timeout == 15_000  # 15us (§5)
    assert config.ofo_timeout == 50_000  # 50us (§5)
    assert config.table_capacity == 64  # §5.2.2


def test_negative_timeouts_rejected():
    with pytest.raises(ValueError):
        JugglerConfig(inseq_timeout=-1)
    with pytest.raises(ValueError):
        JugglerConfig(ofo_timeout=-1)


def test_zero_capacity_rejected():
    with pytest.raises(ValueError):
        JugglerConfig(table_capacity=0)


def test_bad_eviction_policy_rejected():
    with pytest.raises(ValueError):
        JugglerConfig(eviction_policy="nope")


def test_zero_timeouts_allowed():
    config = JugglerConfig(inseq_timeout=0, ofo_timeout=0)
    assert config.inseq_timeout == 0


def test_stats_batching_extent():
    stats = GroStats()
    stats.record_delivery(FLOW, 0, 3000, 2, FlushReason.SEGMENT_FULL)
    stats.record_delivery(FLOW, 3000, 9000, 4, FlushReason.INSEQ_TIMEOUT)
    assert stats.batching_extent == 3.0


def test_stats_ooo_tracking():
    stats = GroStats()
    stats.record_delivery(FLOW, 0, 1000, 1, FlushReason.INSEQ_TIMEOUT)
    stats.record_delivery(FLOW, 2000, 3000, 1, FlushReason.OFO_TIMEOUT)  # gap
    stats.record_delivery(FLOW, 1000, 2000, 1, FlushReason.RETRANSMISSION)
    assert stats.ooo_segments == 2
    assert stats.ooo_fraction == pytest.approx(2 / 3)


def test_stats_ooo_per_flow_independent():
    stats = GroStats()
    other = FiveTuple(9, 9, 9, 9)
    stats.record_delivery(FLOW, 0, 1000, 1, FlushReason.INSEQ_TIMEOUT)
    stats.record_delivery(other, 0, 1000, 1, FlushReason.INSEQ_TIMEOUT)
    assert stats.ooo_segments == 0


def test_stats_empty_ratios():
    stats = GroStats()
    assert stats.batching_extent == 0.0
    assert stats.ooo_fraction == 0.0


