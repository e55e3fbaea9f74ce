"""Per-figure experiment implementations.

Each module reproduces one table or figure from the paper's evaluation as a
grid: ``POINT_AXES``, ``run_point(params, **point)`` for one (scaled-down)
point, and ``render(points)`` for the text table the corresponding bench
prints.  :func:`repro.experiments.common.run_grid` runs a module's whole
grid; ``juggler-repro <name>`` runs and prints it.  The per-figure tests in
``benchmarks/`` call these entry points and assert the paper's claims.

Every module builds its universe through :mod:`repro.experiments.cell` —
one ``Cell`` (engine, RNG streams, GRO factory, topology, traffic) and its
one ``measure()`` window — and keeps only what is its own: parameters,
sweep axes, policies, probes and ``render``.
"""
