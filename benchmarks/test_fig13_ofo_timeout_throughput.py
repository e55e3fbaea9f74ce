"""Figure 13: throughput vs ofo_timeout."""

from conftest import series, show

from repro.experiments import fig13_ofo_timeout_throughput as fig13
from repro.experiments.common import run_grid
from repro.experiments.fig13_ofo_timeout_throughput import (
    Fig13Params,
    render,
)

PARAMS = Fig13Params(
    ofo_timeouts_us=(50, 150, 300, 500, 700, 900),
    reorder_delays_us=(250, 500, 750),
    warmup_ms=8,
    measure_ms=10,
)


def test_fig13_throughput_vs_ofo_timeout():
    result = run_grid(fig13, PARAMS)
    show("Figure 13 — throughput vs ofo_timeout "
         "(paper: line rate once ofo_timeout >~ tau - tau0, tau0 = 125us)",
         render(result))
    for reorder_us in PARAMS.reorder_delays_us:
        curve = {p.ofo_timeout_us: p
                 for p in series(result, reorder_delay_us=reorder_us)}
        # Ample timeout: line rate, no premature flushes or recoveries.
        assert curve[900].throughput_gbps > 9.0
        assert curve[900].ofo_flushes == 0
        # Starved timeout: premature OOO flushes and lost throughput.
        assert curve[50].ofo_flushes > 0
        assert curve[50].throughput_gbps < 0.95 * curve[900].throughput_gbps
    # More reordering needs a larger timeout: the 250us curve has recovered
    # by 300us while the 750us curve has not.
    assert series(result, reorder_delay_us=250,
                  ofo_timeout_us=300)[0].throughput_gbps > 9.0
    assert series(result, reorder_delay_us=750,
                  ofo_timeout_us=300)[0].throughput_gbps < 9.0
