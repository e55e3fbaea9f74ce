"""Figure 18: achieved vs guaranteed bandwidth sweep."""

from conftest import show

from repro.experiments.fig18_bandwidth_sweep import (
    Fig18Params,
    render,
    run,
)
from repro.harness.experiment import GroKind

PARAMS = Fig18Params(guarantees_gbps=(5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
                     ramp_ms=25, measure_ms=30)


def test_fig18_guarantee_sweep():
    result = run(PARAMS)
    show("Figure 18 — achieved vs guaranteed bandwidth "
         "(paper: Juggler tracks the guarantee up to the single-core CPU "
         "limit; vanilla falls short with high variance; ~5G fair-share "
         "floor)",
         render(result))
    juggler = {p.guarantee_gbps: p for p in result.series(GroKind.JUGGLER)}
    vanilla = {p.guarantee_gbps: p for p in result.series(GroKind.VANILLA)}
    # Juggler tracks the guarantee closely in the feasible region.
    for b in (5.0, 10.0, 15.0, 20.0, 25.0):
        assert abs(juggler[b].achieved_gbps - b) < 2.5, f"B={b}"
    # ... and flattens at the CPU knee rather than reaching 30.
    assert juggler[30.0].achieved_gbps < 29.5
    assert juggler[30.0].app_core_pct >= 99.0
    # Vanilla misses mid-range guarantees and is more variable there.
    assert vanilla[20.0].achieved_gbps < juggler[20.0].achieved_gbps - 2.0
    assert vanilla[25.0].achieved_gbps < juggler[25.0].achieved_gbps - 2.0
    assert vanilla[20.0].stdev_gbps > juggler[20.0].stdev_gbps
    # The fair-share floor: even a tiny guarantee yields ~5 Gb/s.
    assert vanilla[5.0].achieved_gbps > 3.0
    assert juggler[5.0].achieved_gbps > 3.0
