"""Figure 15: 99th percentile of active flows vs concurrency."""

from conftest import series, show

from repro.experiments import fig15_active_flows as fig15
from repro.experiments.common import run_grid
from repro.experiments.fig15_active_flows import Fig15Params, render

PARAMS = Fig15Params(
    concurrent_flows=(64, 128, 256, 512),
    reorder_delays_us=(250, 500, 1000),
    warmup_ms=4,
    measure_ms=15,
)


def test_fig15_active_flow_count():
    result = run_grid(fig15, PARAMS)
    show("Figure 15 — p99 active flows vs concurrency "
         "(paper: grows slowly with both axes, worst case < 35)",
         render(result))
    # The paper's worst-case bound: a few tens of flows, never hundreds.
    assert all(p.p99_active_flows < 48 for p in result)
    # More reordering -> more flows mid-flight to track (compare extremes).
    for nflows in PARAMS.concurrent_flows:
        (mild,) = series(result, reorder_delay_us=250,
                         concurrent_flows=nflows)
        (severe,) = series(result, reorder_delay_us=1000,
                           concurrent_flows=nflows)
        assert severe.p99_active_flows >= mild.p99_active_flows
    # Tracking demand is a tiny fraction of the concurrent-flow count.
    worst = max(p.p99_active_flows for p in result)
    assert worst < 0.25 * max(PARAMS.concurrent_flows)
