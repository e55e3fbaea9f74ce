"""Figure 15: 99th percentile of active flows vs concurrency."""

from conftest import show

from repro.experiments.fig15_active_flows import Fig15Params, render, run

PARAMS = Fig15Params(
    concurrent_flows=(64, 128, 256, 512),
    reorder_delays_us=(250, 500, 1000),
    warmup_ms=4,
    measure_ms=15,
)


def test_fig15_active_flow_count():
    result = run(PARAMS)
    show("Figure 15 — p99 active flows vs concurrency "
         "(paper: grows slowly with both axes, worst case < 35)",
         render(result))
    # The paper's worst-case bound: a few tens of flows, never hundreds.
    assert all(p.p99_active_flows < 48 for p in result.points)
    # More reordering -> more flows mid-flight to track (compare extremes).
    for nflows in PARAMS.concurrent_flows:
        mild = [p for p in result.series(250)
                if p.concurrent_flows == nflows][0]
        severe = [p for p in result.series(1000)
                  if p.concurrent_flows == nflows][0]
        assert severe.p99_active_flows >= mild.p99_active_flows
    # Tracking demand is a tiny fraction of the concurrent-flow count.
    worst = max(p.p99_active_flows for p in result.points)
    assert worst < 0.25 * max(PARAMS.concurrent_flows)
