"""Figure 12: batching efficiency vs inseq_timeout."""

from conftest import series, show

from repro.experiments import fig12_inseq_timeout as fig12
from repro.experiments.common import run_grid
from repro.experiments.fig12_inseq_timeout import Fig12Params, render

PARAMS = Fig12Params(
    inseq_timeouts_us=(0, 20, 40, 52, 80, 100),
    reorder_delays_us=(250, 500, 750),
    warmup_ms=6,
    measure_ms=10,
)


def test_fig12_batching_vs_inseq_timeout():
    result = run_grid(fig12, PARAMS)
    show("Figure 12 — batching extent & CPU vs inseq_timeout "
         "(paper: 25 -> ~44 MTUs, knee at 52us, independent of reordering)",
         render(result))
    for reorder_us in PARAMS.reorder_delays_us:
        curve = series(result, reorder_delay_us=reorder_us)
        by_timeout = {p.inseq_timeout_us: p for p in curve}
        # Batching rises toward the 64 KB cap and the knee sits at ~52us.
        assert by_timeout[0].batching_extent < 30
        assert by_timeout[52].batching_extent > by_timeout[0].batching_extent
        assert by_timeout[100].batching_extent > 40
        gain_past_knee = (by_timeout[100].batching_extent
                          - by_timeout[80].batching_extent)
        gain_before_knee = (by_timeout[52].batching_extent
                            - by_timeout[20].batching_extent)
        assert gain_before_knee > gain_past_knee
        # CPU falls (or at least never rises) as batching improves.
        assert by_timeout[100].app_core_pct <= by_timeout[0].app_core_pct
        # Line rate throughout.
        assert all(p.throughput_gbps > 9.0 for p in curve)
