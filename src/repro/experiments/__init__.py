"""Per-figure experiment implementations.

Each module reproduces one table or figure from the paper's evaluation:
``run(params)`` executes the (scaled-down) experiment and returns a result
object; ``render(result)`` produces the text table the corresponding bench
prints; running a module as a script does both.  The benchmark suite in
``benchmarks/`` wraps these entry points with pytest-benchmark.

Every module builds its universe through :mod:`repro.experiments.cell` —
one ``Cell`` (engine, RNG streams, GRO factory, topology, traffic) and its
one ``measure()`` window — and keeps only what is its own: parameters,
sweep axes, policies, probes and ``render``.
"""
