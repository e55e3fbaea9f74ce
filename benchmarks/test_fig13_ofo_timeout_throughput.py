"""Figure 13: throughput vs ofo_timeout."""

from conftest import show

from repro.experiments.fig13_ofo_timeout_throughput import (
    Fig13Params,
    render,
    run,
)

PARAMS = Fig13Params(
    ofo_timeouts_us=(50, 150, 300, 500, 700, 900),
    reorder_delays_us=(250, 500, 750),
    warmup_ms=8,
    measure_ms=10,
)


def test_fig13_throughput_vs_ofo_timeout():
    result = run(PARAMS)
    show("Figure 13 — throughput vs ofo_timeout "
         "(paper: line rate once ofo_timeout >~ tau - tau0, tau0 = 125us)",
         render(result))
    for reorder_us in PARAMS.reorder_delays_us:
        series = {p.ofo_timeout_us: p for p in result.series(reorder_us)}
        # Ample timeout: line rate, no premature flushes or recoveries.
        assert series[900].throughput_gbps > 9.0
        assert series[900].ofo_flushes == 0
        # Starved timeout: premature OOO flushes and lost throughput.
        assert series[50].ofo_flushes > 0
        assert series[50].throughput_gbps < 0.95 * series[900].throughput_gbps
    # More reordering needs a larger timeout: the 250us curve has recovered
    # by 300us while the 750us curve has not.
    assert result.series(250)[2].throughput_gbps > 9.0  # ofo=300
    assert result.series(750)[2].throughput_gbps < 9.0  # ofo=300
