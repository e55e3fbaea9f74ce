"""Figure 16: active-list statistics on the realistic Clos workload."""

from conftest import show

from repro.experiments.fig16_active_list_histogram import (
    Fig16Params,
    render,
    run,
)

PARAMS = Fig16Params(warmup_ms=8, measure_ms=15)


def test_fig16_active_list_statistics():
    points = run(PARAMS)
    show("Figure 16 — active/loss-recovery list lengths on the Clos "
         "workload (paper: 40G avg < 1 & p99 < 5; 10G p99 < 6; loss list "
         "almost always empty)",
         render(points))
    at_40g, at_10g = points
    assert at_40g.mean_active < 3.0
    assert at_40g.p99_active <= 8
    assert at_40g.fraction_at_most_5 > 0.9
    assert at_10g.p99_active <= 10
    # The loss-recovery list is almost always empty (§5.2.2).
    assert at_40g.mean_loss_recovery < 0.5
    assert at_10g.mean_loss_recovery < 0.5
