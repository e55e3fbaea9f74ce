"""Figure 14: small-RPC tail latency vs ofo_timeout under loss."""

from conftest import show

from repro.experiments.fig14_ofo_timeout_latency import (
    Fig14Params,
    render,
    run,
)

PARAMS = Fig14Params(
    ofo_timeouts_us=(50, 100, 200, 400, 600, 800, 1000),
    reorder_delays_us=(250, 500, 750),
    duration_ms=150,
)


def test_fig14_latency_vs_ofo_timeout():
    result = run(PARAMS)
    show("Figure 14 — 10KB RPC p99 vs ofo_timeout at 0.1% loss "
         "(paper: flat below ~tau - tau0, grows beyond; see EXPERIMENTS.md "
         "for the low-ofo deviation of our SACK model)",
         render(result))
    for reorder_us in PARAMS.reorder_delays_us:
        series = {p.ofo_timeout_us: p for p in result.series(reorder_us)}
        assert all(p.rpcs_completed > 50
                   for p in result.series(reorder_us))
        # The floor scales with the reordering delay itself.
        assert series[1000].median_latency_us > reorder_us * 0.8
    # Oversizing the timeout never helps the tail: for the mildest
    # reordering, p99 at ofo=1000us is no better than at the knee.
    mild = {p.ofo_timeout_us: p for p in result.series(250)}
    assert mild[1000].p99_latency_us >= 0.9 * mild[400].p99_latency_us
