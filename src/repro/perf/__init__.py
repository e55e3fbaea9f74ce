"""Hot-path microbenchmarks and the perf-regression gate.

The reproduction's north star includes "runs as fast as the hardware
allows"; this package is where that claim is *measured* instead of
asserted.  It has three parts:

* :mod:`repro.perf.workloads` — deterministic packet streams and drive
  loops shaped like the paper's experiments (the many-flows stream is the
  Figure 10 workload shape: 256 flows through one RX queue);
* :mod:`repro.perf.bench` — the pinned microbenchmark suite, six layer
  stopwatches that each name one layer of a ``benchmarks/e2e --trace 1``
  attribution: packets/sec through the GRO variants, events/sec through
  the engine, packets/sec through the fabric's reordering detector,
  packets/sec cut by sender-side TSO;
* :mod:`repro.perf.gate` — the regression gate: results are recorded in
  ``BENCH_core.json`` at the repo root, and ``juggler-repro bench
  --check`` compares a fresh run against that committed baseline inside a
  tolerance band, failing CI on a regression.

Workloads and drive loops are fully deterministic (seeded streams, fixed
iteration counts); only the measurement itself reads the host clock, which
is why the package is linted under the relaxed determinism policy.
"""

from repro.perf.bench import BENCHES, BenchResult, run_benches
from repro.perf.gate import (
    check_against_baseline,
    load_baseline,
    write_baseline,
)

__all__ = [
    "BENCHES",
    "BenchResult",
    "run_benches",
    "check_against_baseline",
    "load_baseline",
    "write_baseline",
]
