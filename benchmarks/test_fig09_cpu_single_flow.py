"""Figure 9: CPU overhead, single flow at 20 Gb/s."""

from conftest import show

from repro.experiments.cpu_overhead import (
    CpuOverheadParams,
    render,
    run_figure,
)

BASE = CpuOverheadParams(warmup_ms=8, measure_ms=14)


def test_fig09_single_flow_cpu():
    results = run_figure(1, BASE)
    show("Figure 9 — CPU overhead, single flow "
         "(paper: vanilla app core saturates and loses throughput under "
         "reordering; Juggler matches the no-reordering baseline)",
         render(results))
    vanilla_inorder, juggler_inorder, vanilla_reorder, juggler_reorder = results
    # Without reordering, Juggler adds no CPU over vanilla.
    assert abs(juggler_inorder.rx_core_pct
               - vanilla_inorder.rx_core_pct) < 5.0
    assert juggler_inorder.throughput_pct_of_target > 95
    # With reordering, vanilla saturates its app core and loses throughput.
    assert vanilla_reorder.app_core_pct >= 99.0
    assert vanilla_reorder.throughput_pct_of_target < 70
    # Juggler sustains the target at near-baseline CPU (paper: < +10%).
    assert juggler_reorder.throughput_pct_of_target > 95
    assert juggler_reorder.rx_core_pct < vanilla_inorder.rx_core_pct + 10
    # The segment blow-up (paper: ~15x, ~40% OOO).
    assert (vanilla_reorder.batching_extent
            < juggler_reorder.batching_extent / 5)
    assert vanilla_reorder.ooo_segment_fraction > 0.3
    assert juggler_reorder.ooo_segment_fraction < 0.05
