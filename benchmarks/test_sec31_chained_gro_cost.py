"""§3.1: linked-list batching costs ~50% more CPU on in-order traffic."""

from conftest import show

from repro.experiments import sec31_chained_gro_cost as sec31
from repro.experiments.common import run_grid
from repro.experiments.sec31_chained_gro_cost import (
    Sec31Params,
    chained_overhead_pct,
    render,
)
from repro.harness.experiment import GroKind

PARAMS = Sec31Params(warmup_ms=6, measure_ms=12)


def test_sec31_chained_batching_overhead():
    points = run_grid(sec31, PARAMS)
    show("§3.1 — linked-list vs frags[] batching on in-order traffic "
         "(paper: chaining costs ~50% more CPU from cache misses)",
         render(points))
    overhead = chained_overhead_pct(points)
    assert 25.0 < overhead < 75.0
    by_kind = {p.kind: p for p in points}
    # All three engines move the same bytes; only the CPU bill differs.
    rates = [p.throughput_gbps for p in points]
    assert max(rates) - min(rates) < 0.5
    # Juggler on in-order traffic costs no more than vanilla GRO.
    assert (by_kind[GroKind.JUGGLER].total_pct
            <= by_kind[GroKind.VANILLA].total_pct + 3.0)
