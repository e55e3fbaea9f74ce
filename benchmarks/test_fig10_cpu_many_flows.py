"""Figure 10: CPU overhead, 256 flows at 20 Gb/s."""

from conftest import show

from repro.experiments.cpu_overhead import (
    CpuOverheadParams,
    render,
    run_figure,
)

BASE = CpuOverheadParams(warmup_ms=10, measure_ms=14)


def test_fig10_many_flows_cpu():
    results = run_figure(256, BASE)
    show("Figure 10 — CPU overhead, 256 flows "
         "(paper: same comparisons and results as the single-flow case)",
         render(results))
    vanilla_inorder, juggler_inorder, vanilla_reorder, juggler_reorder = results
    # Without reordering both kernels hit the target.
    assert vanilla_inorder.throughput_pct_of_target > 90
    assert juggler_inorder.throughput_pct_of_target > 90
    # With reordering the vanilla kernel collapses; Juggler does not.
    assert vanilla_reorder.throughput_pct_of_target < 60
    assert juggler_reorder.throughput_pct_of_target > 90
    # Juggler's CPU with reordering stays near the vanilla in-order cost.
    assert (juggler_reorder.rx_core_pct
            < vanilla_inorder.rx_core_pct + 10)
    assert (juggler_reorder.batching_extent
            > 5 * vanilla_reorder.batching_extent)
