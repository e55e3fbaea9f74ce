"""Figure 20: RPC tails under per-flow / per-TSO / per-packet balancing."""

from conftest import show

from repro.experiments.fig20_load_balancing import (
    Fig20Params,
    LbPolicy,
    render,
    run,
)

PARAMS = Fig20Params(loads_pct=(25, 50, 75, 90), warmup_ms=6, measure_ms=20)


def test_fig20_load_balancing_tails():
    result = run(PARAMS)
    show("Figure 20 — RPC completion tails vs load "
         "(paper: per-packet >= 2x better small-RPC p99 than ECMP past 50% "
         "load; beats per-TSO by a growing margin)",
         render(result))
    by = {(p.policy, p.load_pct): p for p in result.points}
    for load in (75, 90):
        ecmp = by[(LbPolicy.ECMP, load)]
        tso = by[(LbPolicy.PER_TSO, load)]
        spray = by[(LbPolicy.PER_PACKET, load)]
        # Small RPC tails: per-packet < per-TSO < ECMP.
        assert spray.small_p99_us < tso.small_p99_us
        assert tso.small_p99_us < ecmp.small_p99_us
        # Large RPC tails order the same way (ECMP pins elephants).
        assert spray.large_p99_ms < ecmp.large_p99_ms
    # The headline: >= 2x at 90% load for the small RPCs.
    assert (by[(LbPolicy.ECMP, 90)].small_p99_us
            > 2.0 * by[(LbPolicy.PER_PACKET, 90)].small_p99_us)
    # At low load the typical experience converges (ECMP's *tail* stays
    # worse even at 25% — a hash-pinned elephant congests its one uplink).
    low_medians = [by[(p, 25)].small_p50_us for p in
                   (LbPolicy.ECMP, LbPolicy.PER_TSO, LbPolicy.PER_PACKET)]
    assert max(low_medians) < 1.3 * min(low_medians)
