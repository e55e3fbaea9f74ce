"""Reproduction of "Juggler: A Practical Reordering Resilient Network Stack
for Datacenters" (Geng, Jeyakumar, Kabbani, Alizadeh — EuroSys 2016).

The package provides:

* ``repro.core`` — the Juggler GRO engine (the paper's contribution) and its
  baselines (vanilla GRO, linked-list batching, Presto-style buffering);
* ``repro.sim`` / ``repro.net`` / ``repro.nic`` / ``repro.fabric`` /
  ``repro.tcp`` / ``repro.cpu`` — the simulated substrate replacing the
  paper's 10/40 Gb/s hardware testbeds;
* ``repro.qos`` — the dynamic-prioritisation bandwidth-guarantee system;
* ``repro.workloads`` / ``repro.harness`` — traffic generators and metrics;
* ``repro.experiments`` — one module per paper table/figure.

No package ``__init__`` imports a submodule: import each name from the
module that defines it, so a process loads only what it builds.

Quickstart::

    import random
    from repro.core.config import JugglerConfig
    from repro.core.juggler import JugglerGRO
    from repro.fabric.topology import build_netfpga_pair
    from repro.sim.engine import Engine
    from repro.sim.time import MS, US
    from repro.tcp.connection import Connection

    engine = Engine()
    rng = random.Random(1)
    factory = lambda deliver: JugglerGRO(
        deliver, JugglerConfig(inseq_timeout=52 * US, ofo_timeout=400 * US))
    bed = build_netfpga_pair(engine, rng, factory, reorder_delay_ns=250 * US)
    conn = Connection(engine, bed.sender, bed.receiver, 1000, 80)
    conn.send(1 << 30)
    engine.run_until(20 * MS)
    print(conn.delivered_bytes * 8 / (20 * MS), "Gb/s despite reordering")
"""
