"""The host_vs_fabric family: where resilience lives, and its plumbing."""

import dataclasses

import pytest

from repro.campaign import registry
from repro.campaign.spec import derive_seed
from repro.experiments.host_vs_fabric import (
    HostFabricParams,
    render,
    run_point,
)

#: Short cells keep the suite fast; the effects are visible at 10 ms.
FAST = HostFabricParams(warmup_ms=2, measure_ms=8)


@pytest.fixture(scope="module")
def corner_rows():
    """The interesting diagonal of the comparison, computed once at
    load 2 (fault 0): host-side resilience vs fabric-side resilience."""
    return {
        (engine, routing): run_point(FAST, engine=engine, routing=routing,
                                     load=2, fault=0)
        for engine, routing in (("standard", "ecmp"),
                                ("standard", "per_packet"),
                                ("standard", "flowcut"),
                                ("juggler", "per_packet"))
    }


def test_flowcut_is_in_order_where_per_packet_is_not(corner_rows):
    """The fabric-side answer: flowcut keeps TCP-visible reordering at
    ECMP's level while per-packet spraying floods the host with OOO."""
    spray = corner_rows[("standard", "per_packet")]
    flowcut = corner_rows[("standard", "flowcut")]
    ecmp = corner_rows[("standard", "ecmp")]
    assert spray.tcp_ooo_segments > 10 * max(1, flowcut.tcp_ooo_segments)
    assert flowcut.tcp_ooo_segments <= ecmp.tcp_ooo_segments + 10
    # And it did so while actually adapting (pins happened).
    assert flowcut.pins > 0


def test_flowcut_balances_better_than_ecmp(corner_rows):
    """Adaptivity is not free ECMP: the congestion-aware pinning spreads
    bytes across uplinks better than static per-flow hashing."""
    assert (corner_rows[("standard", "flowcut")].uplink_imbalance
            < corner_rows[("standard", "ecmp")].uplink_imbalance)


def test_host_side_answer_absorbs_spray_reordering(corner_rows):
    """The host-side answer: under identical spraying, Juggler absorbs
    the reordering below the transport — TCP sees an order of magnitude
    fewer OOO segments, and GRO batching survives (the paper's CPU
    claim), where standard GRO degenerates toward one MTU per segment."""
    standard = corner_rows[("standard", "per_packet")]
    juggler = corner_rows[("juggler", "per_packet")]
    assert juggler.tcp_ooo_segments * 10 < standard.tcp_ooo_segments
    assert juggler.batching > 2 * standard.batching
    # The resilience is visible in its mechanism: OFO-timeout flushes.
    assert juggler.ofo_timeout_flushes > 0
    assert standard.ofo_timeout_flushes == 0


def test_detector_sees_the_reordering_the_fabric_creates(corner_rows):
    """The in-network observer agrees with the arm semantics: spraying
    shows up in the detectors, flowcut does not."""
    spray = corner_rows[("standard", "per_packet")]
    flowcut = corner_rows[("standard", "flowcut")]
    assert spray.det_reordered > 0
    assert flowcut.det_reordered <= spray.det_reordered // 10


def test_cell_seeds_pair_across_engine_and_routing():
    """The cell seed excludes engine and routing, so all eight arms of a
    (load, fault) cell face identical randomness."""
    expected = derive_seed(FAST.seed, "host_vs_fabric", "2:0")
    assert expected == derive_seed(FAST.seed, "host_vs_fabric", f"{2}:{0}")
    assert expected != derive_seed(FAST.seed, "host_vs_fabric", "2:1")


def test_unknown_levels_rejected():
    with pytest.raises(ValueError, match="unknown load"):
        run_point(FAST, engine="juggler", routing="ecmp", load=9, fault=0)
    with pytest.raises(ValueError, match="unknown fault"):
        run_point(FAST, engine="juggler", routing="ecmp", load=1, fault=9)
    with pytest.raises(ValueError, match="unknown routing"):
        run_point(FAST, engine="juggler", routing="valiant", load=1, fault=0)


def test_rows_deterministic_and_adapter_parity():
    """Same cell twice -> byte-identical row; the registry adapter path
    produces the exact run_point row (resume/store equivalence)."""
    direct = run_point(FAST, engine="standard", routing="flowcut",
                       load=1, fault=0)
    again = run_point(FAST, engine="standard", routing="flowcut",
                      load=1, fault=0)
    assert direct == again

    adapter = registry.get("host_vs_fabric")
    assert adapter.hidden
    base = {"warmup_ms": FAST.warmup_ms, "measure_ms": FAST.measure_ms}
    rows = adapter.execute(base, None,
                           {"engine": "standard", "routing": "flowcut",
                            "load": 1, "fault": 0})
    assert rows == [dataclasses.asdict(direct)]


def test_faulted_cell_actually_hurts():
    """A fault-level-2 cell (6 KB buffer windows on one uplink) costs
    ECMP — which cannot route around the sick path — goodput and tail
    latency versus the clean cell."""
    clean = run_point(FAST, engine="juggler", routing="ecmp",
                      load=2, fault=0)
    sick = run_point(FAST, engine="juggler", routing="ecmp",
                     load=2, fault=2)
    assert sick.goodput_gbps < clean.goodput_gbps
    assert sick.small_p99_us > clean.small_p99_us


def test_render_shapes_one_row_per_point():
    point = run_point(FAST, engine="juggler", routing="flowlet",
                      load=1, fault=0)
    table = render([point])
    assert "goodput_gbps" in table and "flowlet" in table
    assert len(table.splitlines()) == 3  # header, rule, one row
