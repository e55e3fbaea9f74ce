"""Smoke tests: every per-figure experiment runs at tiny scale and keeps its
paper-shape invariants.  The benchmarks run the fuller parameter grids."""

import pytest

from repro.experiments.common import run_grid


def test_fig12_batching_rises_with_inseq_timeout():
    from repro.experiments import fig12_inseq_timeout as fig12

    params = fig12.Fig12Params(inseq_timeouts_us=(0, 100),
                               reorder_delays_us=(250,),
                               warmup_ms=4, measure_ms=6)
    low, high = run_grid(fig12, params)
    assert high.batching_extent > low.batching_extent * 1.3
    assert high.rx_core_pct <= low.rx_core_pct + 1.0


def test_fig13_small_ofo_timeout_loses_throughput():
    from repro.experiments.fig13_ofo_timeout_throughput import (
        Fig13Params, run_cell)

    params = Fig13Params(warmup_ms=6, measure_ms=8)
    starved = run_cell(params, reorder_us=500, ofo_us=50)
    ample = run_cell(params, reorder_us=500, ofo_us=800)
    assert ample.throughput_gbps > 9.0
    assert starved.throughput_gbps < 0.9 * ample.throughput_gbps
    assert starved.ofo_flushes > 0 and ample.ofo_flushes == 0


def test_fig14_latency_grows_past_knee():
    from repro.experiments.fig14_ofo_timeout_latency import (
        Fig14Params, run_cell)

    params = Fig14Params(duration_ms=60)
    at_knee = run_cell(params, reorder_us=250, ofo_us=400)
    oversize = run_cell(params, reorder_us=250, ofo_us=1000)
    assert at_knee.rpcs_completed > 100
    assert oversize.p99_latency_us >= at_knee.p99_latency_us * 0.9


def test_fig9_vanilla_saturates_juggler_does_not():
    from repro.experiments.cpu_overhead import CpuOverheadParams, run_point

    params = CpuOverheadParams(warmup_ms=5, measure_ms=8)
    vanilla = run_point(params, num_flows=1, reordering=True, kind="vanilla")
    juggler = run_point(params, num_flows=1, reordering=True, kind="juggler")
    assert juggler.throughput_pct_of_target > 90
    assert vanilla.throughput_pct_of_target < 70
    # CPU per delivered bit: the vanilla kernel burns several times more
    # application-core time for what little it delivers.
    vanilla_cost = vanilla.app_core_pct / max(vanilla.throughput_gbps, 0.1)
    juggler_cost = juggler.app_core_pct / max(juggler.throughput_gbps, 0.1)
    assert vanilla_cost > 2.5 * juggler_cost
    assert juggler.batching_extent > 5 * vanilla.batching_extent


def test_fig15_active_flows_bounded():
    from repro.experiments.fig15_active_flows import Fig15Params, run_cell

    params = Fig15Params(warmup_ms=4, measure_ms=10)
    point = run_cell(params, nflows=128, reorder_us=500)
    assert point.p99_active_flows < 40
    assert point.mean_active_flows < 20


def test_fig16_lists_tiny_on_realistic_workload():
    from repro.experiments.fig16_active_list_histogram import (
        Fig16Params, run_point)

    params = Fig16Params(warmup_ms=5, measure_ms=8)
    point = run_point(params, receiver_port_gbps=40.0)
    assert point.p99_active <= 8  # paper: < 5 at 40G; allow sim slack
    assert point.mean_loss_recovery < 0.5


def test_fig18_juggler_tracks_guarantee_vanilla_does_not():
    from repro.experiments.fig18_bandwidth_sweep import Fig18Params, run_point

    params = Fig18Params(ramp_ms=20, measure_ms=20)
    juggler = run_point(params, kind="juggler", guarantee_gbps=15.0)
    vanilla = run_point(params, kind="vanilla", guarantee_gbps=15.0)
    assert juggler.achieved_gbps == pytest.approx(15.0, abs=2.0)
    assert vanilla.achieved_gbps < juggler.achieved_gbps


def test_fig20_per_packet_beats_ecmp_tail():
    from repro.experiments.fig20_load_balancing import (
        Fig20Params, LbPolicy, run_point)

    params = Fig20Params(warmup_ms=4, measure_ms=12)
    ecmp = run_point(params, policy=LbPolicy.ECMP, load_pct=90)
    spray = run_point(params, policy=LbPolicy.PER_PACKET, load_pct=90)
    assert spray.small_p99_us < ecmp.small_p99_us
    assert spray.large_p99_ms < ecmp.large_p99_ms


def test_sec31_chained_costs_more():
    from repro.experiments import sec31_chained_gro_cost as sec31

    points = run_grid(sec31, sec31.Sec31Params(warmup_ms=4, measure_ms=8))
    overhead = sec31.chained_overhead_pct(points)
    assert 20.0 < overhead < 80.0  # paper: ~50%


def test_sec512_no_added_latency():
    from repro.experiments import sec512_latency_overhead as sec512

    juggler, vanilla = run_grid(sec512, sec512.Sec512Params(duration_ms=20))
    assert juggler.median_us == pytest.approx(vanilla.median_us, rel=0.02)


def test_ablation_buildup_reduces_segments():
    from repro.experiments import ablations

    on, off = run_grid(ablations, ablations.AblationParams(
        configs=("buildup=on", "buildup=off"), duration_ms=15))
    assert on.segments_per_packet <= off.segments_per_packet


def test_ablation_eviction_policy_matters():
    from repro.experiments import ablations

    paper, fifo, inverted = run_grid(ablations, ablations.AblationParams(
        configs=("evict=inactive_first", "evict=fifo", "evict=active_first"),
        duration_ms=25))
    assert inverted.segments_per_packet > 1.1 * paper.segments_per_packet
    assert inverted.evictions > paper.evictions
    # Throughput differences are within noise at smoke scale; just check
    # the inversion is not somehow a clear win.
    assert inverted.throughput_gbps <= paper.throughput_gbps * 1.02


def test_ablation_table_size_knee():
    from repro.experiments import ablations

    tiny, ample = run_grid(ablations, ablations.AblationParams(
        configs=("capacity=2", "capacity=16"), duration_ms=15))
    assert tiny.segments_per_packet > ample.segments_per_packet
