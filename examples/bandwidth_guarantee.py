#!/usr/bin/env python3
"""Bandwidth guarantees by dynamic packet prioritisation (§2.1, Figure 1).

Eight TCP flows share a 40 Gb/s two-priority bottleneck.  At t = 0 a
controller starts marking one flow's packets high-priority with probability
p, adapting p ← p + α(Rt − Rm) toward a 20 Gb/s guarantee.  Mixing
priorities reorders the flow's own packets — which is why the scheme needs
a reordering-resilient receiver.

Run:  python examples/bandwidth_guarantee.py
"""

from repro.experiments.fig01_bandwidth_guarantee import (
    Fig01Params,
    run_point,
)
from repro.harness.experiment import GroKind


def sparkline(values, lo=0.0, hi=40.0) -> str:
    """Render a throughput series as a unicode sparkline."""
    blocks = "▁▂▃▄▅▆▇█"
    out = []
    for v in values:
        idx = int((min(max(v, lo), hi) - lo) / (hi - lo) * (len(blocks) - 1))
        out.append(blocks[idx])
    return "".join(out)


def main() -> None:
    params = Fig01Params(before_ms=25, after_ms=60, ofo_timeout_us=200,
                         sample_ms=5)
    print("Target flow throughput (each char = 5 ms; controller starts at "
          "the '|'):\n")
    for kind in (GroKind.JUGGLER, GroKind.VANILLA):
        result = run_point(params, kind=kind)
        before = [v for t, v in result.series if t <= result.start_ns]
        after = [v for t, v in result.series if t > result.start_ns]
        print(f"{kind.value:8s} {sparkline(before)}|{sparkline(after)}")
        print(f"{'':8s} before ~{result.before_mean():.1f} Gb/s   "
              f"after {result.after_mean():.1f} ± "
              f"{result.after_stdev():.1f} Gb/s "
              f"(guarantee {params.guarantee_gbps:g})\n")
    print("With Juggler the flow converges onto its 20 Gb/s guarantee and "
          "holds it;\nthe vanilla kernel cannot digest the priority-mixing "
          "reordering and lands\nbelow the guarantee with visible churn.")


if __name__ == "__main__":
    main()
