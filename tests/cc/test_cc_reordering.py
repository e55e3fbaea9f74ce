"""The cc_reordering family: the headline result and campaign plumbing."""

import dataclasses

import pytest

from repro.campaign import registry
from repro.experiments.cc_reordering import (
    INTENSITY_LEVELS,
    CcParams,
    render,
    run_point,
)

#: Short cells keep the suite fast; the gaps are wide enough at 16 ms.
FAST = CcParams(duration_ms=16, warmup_ms=4)


@pytest.fixture(scope="module")
def headline_rows():
    """The paired-seed arms of the headline comparison, computed once."""
    return {
        (cc, engine): run_point(FAST, cc=cc, intensity=3, engine=engine)
        for cc in ("reno", "bbr")
        for engine in ("standard", "juggler")
    }


def test_headline_bbr_beats_reno_under_reordering(headline_rows):
    """§3.1's protocol damage is policy-dependent: under intensity-3
    reordering with standard GRO, BBR (which does not treat dupACKs as a
    rate signal) retains strictly more goodput than Reno."""
    reno = headline_rows[("reno", "standard")]
    bbr = headline_rows[("bbr", "standard")]
    assert bbr.goodput_gbps > reno.goodput_gbps
    # And the mechanism shows why: Reno kept entering spurious recovery.
    assert reno.recoveries > bbr.recoveries
    assert reno.retx_packets > bbr.retx_packets


def test_headline_juggler_closes_renos_gap(headline_rows):
    """Enabling Juggler under Reno recovers (nearly) the goodput BBR kept:
    fixing reordering below the transport beats redesigning the transport."""
    reno_standard = headline_rows[("reno", "standard")]
    reno_juggler = headline_rows[("reno", "juggler")]
    bbr_standard = headline_rows[("bbr", "standard")]
    assert reno_juggler.goodput_gbps > reno_standard.goodput_gbps
    # Within 10% of what the reordering-resilient policy achieves.
    assert reno_juggler.goodput_gbps >= 0.9 * bbr_standard.goodput_gbps
    # Juggler absorbed the reordering before TCP could see it.
    assert reno_juggler.tcp_ooo_segments < reno_standard.tcp_ooo_segments
    assert reno_juggler.recoveries == 0


def test_in_order_fabric_all_policies_saturate():
    for cc in ("reno", "cubic", "dctcp"):
        point = run_point(FAST, cc=cc, intensity=0, engine="juggler")
        assert point.goodput_gbps > 8.0, (cc, point)
        assert point.recoveries == 0


def test_unknown_intensity_rejected():
    with pytest.raises(ValueError, match="unknown intensity"):
        run_point(FAST, cc="reno", intensity=9, engine="juggler")
    assert sorted(INTENSITY_LEVELS) == [0, 1, 2, 3]


def test_rows_deterministic_and_adapter_parity():
    """The registry adapter path produces the exact run_point row."""
    direct = run_point(FAST, cc="reno", intensity=0, engine="standard")
    again = run_point(FAST, cc="reno", intensity=0, engine="standard")
    assert direct == again

    adapter = registry.get("cc_reordering")
    assert adapter.hidden
    base = {"duration_ms": FAST.duration_ms, "warmup_ms": FAST.warmup_ms}
    rows = adapter.execute(base, None,
                           {"cc": "reno", "intensity": 0,
                            "engine": "standard"})
    assert rows == [dataclasses.asdict(direct)]


def test_render_shapes_one_row_per_point():
    point = run_point(FAST, cc="dctcp", intensity=1, engine="presto")
    table = render([point])
    assert "goodput_gbps" in table
    assert "dctcp" in table
    assert len(table.splitlines()) == 3  # header, rule, one row
