"""The repo's perf record: exact counts, not timings.

:mod:`repro.perf.counts` counts Python-level calls per ``(file, function)``
under ``repro/`` and the events the engine fires; the budget tests hold
marginal counts with it, and ``juggler-repro bench`` (:mod:`repro.perf.cli`)
holds four shortened benchmark cells exactly against ``BENCH_counts.json``.
Wall-clock per cell is measured by ``benchmarks/e2e``.
"""
