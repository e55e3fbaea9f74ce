"""Figure 1: bandwidth guarantee via dynamic packet scheduling."""

from conftest import show

from repro.experiments import fig01_bandwidth_guarantee as fig01
from repro.experiments.common import run_grid
from repro.experiments.fig01_bandwidth_guarantee import (
    Fig01Params,
    render,
)
from repro.harness.experiment import GroKind

PARAMS = Fig01Params(before_ms=25, after_ms=60, ofo_timeout_us=200,
                     sample_ms=5)


def test_fig01_guarantee_time_series():
    results = run_grid(fig01, PARAMS)
    show("Figure 1 — 20 Gb/s guarantee among 8 flows on a 40G link "
         "(paper: Juggler converges quickly and holds steady; vanilla is "
         "below target and far more variable)",
         render(results))
    juggler = next(r for r in results if r.kind is GroKind.JUGGLER)
    vanilla = next(r for r in results if r.kind is GroKind.VANILLA)
    # Juggler converges onto the guarantee and holds it steadily.
    assert abs(juggler.after_mean() - PARAMS.guarantee_gbps) < 2.0
    assert juggler.after_stdev() < 1.5
    # The vanilla kernel undershoots and wobbles more.
    assert vanilla.after_mean() < juggler.after_mean() - 2.0
    assert vanilla.after_stdev() > juggler.after_stdev()
    # Before the controller starts, nobody is near the guarantee.
    assert juggler.before_mean() < PARAMS.guarantee_gbps * 0.6
