"""Seeded RNG registry and time units."""

from repro.sim.rng import RngRegistry, derive_cell_seed, derive_seed
from repro.sim.time import NS, US, MS, SEC


def test_time_unit_ratios():
    assert US == 1_000 * NS
    assert MS == 1_000 * US
    assert SEC == 1_000 * MS


def test_same_seed_same_stream():
    a = RngRegistry(7).stream("spray")
    b = RngRegistry(7).stream("spray")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_names_independent_streams():
    reg = RngRegistry(7)
    a = reg.stream("a")
    b = reg.stream("b")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_stream_identity_cached():
    reg = RngRegistry(1)
    assert reg.stream("x") is reg.stream("x")


def test_creation_order_does_not_matter():
    reg1 = RngRegistry(3)
    reg1.stream("first")
    late = reg1.stream("second").random()
    reg2 = RngRegistry(3)
    early = reg2.stream("second").random()
    assert late == early


# Absolute values: every stream and cell seed of every pinned universe
# (golden rows, e2e digests) hangs off these hashes.
def test_stream_draws_are_pinned():
    rng = RngRegistry(7).stream("netfpga")
    assert [rng.random() for _ in range(3)] == [
        0.756267810726033, 0.9001343483246579, 0.3779059208211917]


def test_cell_seeds_are_pinned():
    from repro.experiments import cc_reordering as cc

    assert derive_seed(11, "host_vs_fabric", "2:0") == 1309855455082340203
    assert derive_cell_seed(
        101, "cc_reordering", cc.POINT_AXES, cc.PAIRED_AXES,
        {"cc": "bbr", "intensity": 3, "engine": "juggler"},
    ) == 5108146113029056516
