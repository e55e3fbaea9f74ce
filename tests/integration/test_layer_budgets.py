""""Off means free", held as a count on the experiment modules' own cells.

An optional layer is ``None`` plus a guard at every site that would call it.
Each cell below runs through its module's entry point for T and for 2T
simulated milliseconds, and the *marginal* reading per package — Python-level
calls made there, bytes by which its files' live allocations grew
(``repro.perf.counts``) — is what the extra T of traffic cost: construction
cancels.  A layer that is off must read (0, 0), exactly; the two indirections
that are always on get a ceiling per operation.  Comprehension frames are
not counted, so every reading is the same on every interpreter.  What this
cannot see is a slower expression inside an existing function: that is
``cell_wall_s`` in ``benchmarks/e2e``.
"""

import functools

import pytest

from repro.analysis import runtime as sanitize_runtime
from repro.experiments import (
    cc_reordering,
    fig13_ofo_timeout_throughput as fig13,
    fig20_load_balancing as fig20,
)
from repro.experiments.cell import Cell
from repro.faults.controller import FaultEngine
from repro.faults.plan import FaultPlan
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet
from repro.perf.counts import marginal_bytes, marginal_calls
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry

T_MS = 2

#: cell -> run(total simulated ms); every cell is built with ``cpu=False``,
#: no tracer, no sanitizer, no fault plan and no detector.
CELLS = {
    # The pair, JugglerGRO, Reno, RSS; ofo_timeout short of tau, so the OFO
    # flush, SACK and retransmit paths all carry traffic.
    "fig13": lambda ms: fig13.run_cell(
        fig13.Fig13Params(warmup_ms=1, measure_ms=ms - 1), 500, 300),
    # The bypass path: StandardGRO on an in-order fabric under BBR.
    "bbr-standard": lambda ms: cc_reordering.run_point(
        cc_reordering.CcParams(warmup_ms=1, duration_ms=ms),
        cc="bbr", intensity=0, engine="standard"),
    # The Clos under per-flow ECMP: four link hops, no detector on any ToR.
    "clos-ecmp": lambda ms: fig20.run_point(
        fig20.Fig20Params(warmup_ms=1, measure_ms=ms - 1),
        policy="per-flow-ecmp", load_pct=25),
}

#: Layers that are off in every cell above -> their files under ``repro/``.
OFF = {
    "trace": ("trace/",),
    "analysis": ("analysis/",),
    "faults": ("faults/",),
    "cpu": ("cpu/",),
    # In-fabric telemetry: no ToR carries a detector, no routing is flowcut.
    "fabric-telemetry": ("fabric/detector.py", "fabric/flowcut.py",
                         "trace/groundtruth.py"),
}


@pytest.fixture(autouse=True, scope="module")
def layers_off():
    """Pin JSAN off, so the sanitize job runs this too."""
    sanitize_runtime.uninstall()
    try:
        yield
    finally:
        sanitize_runtime.reset()


@functools.lru_cache(maxsize=None)
def marginal(cell):
    """(calls, retained bytes) the second T of ``cell`` cost, by file."""
    once = functools.partial(CELLS[cell], T_MS)
    twice = functools.partial(CELLS[cell], 2 * T_MS)
    return (marginal_calls(once, twice),
            marginal_bytes(once, twice, Cell, "measure"))


def within(counts, *prefixes):
    """The entries of a reading — calls keyed ``(file, function)``, bytes
    keyed ``file`` — whose file is under any of ``prefixes``."""
    return {key: count for key, count in counts.items()
            if (key if isinstance(key, str) else key[0]).startswith(prefixes)}


@pytest.mark.parametrize("cell", CELLS)
@pytest.mark.parametrize("layer", OFF)
def test_layer_that_is_off_costs_nothing(layer, cell):
    calls, retained = marginal(cell)
    assert calls["nic/rxqueue.py", "enqueue"] > 1_000  # traffic did flow
    assert (within(calls, *OFF[layer]),
            within(retained, *OFF[layer])) == ({}, {})


#: Always-on indirections on the fig13 cell: package -> (the operation it
#: serves, ceiling in calls per operation).  Measured, py3.10-3.12 alike:
#: steer 0 calls / 2,710 packets (one RX queue under RSS: the NIC hands
#: arrivals straight to the ring; four queues index their rings by the RSS
#: hash, 0 calls too, exact in tests/fabric/test_hop_budget.py); cc 5,094 /
#: 1,119 ACKs = 4.55 (``on_ack`` + ``_dctcp_window_update`` + ``rto`` per
#: new ACK, up to three ``pacing_rate_gbps`` per burst, ``on_send``,
#: ``on_sack``, ``rtt.sample``).
PER_OPERATION = {
    "steer": (("nic/rxqueue.py", "enqueue"), 1),
    "cc": (("tcp/sender.py", "_on_ack"), 5),
}


@pytest.mark.parametrize("layer", PER_OPERATION)
def test_always_on_indirection_stays_inside_its_budget(layer):
    calls, retained = marginal("fig13")
    operation, ceiling = PER_OPERATION[layer]
    operations = calls[operation]
    assert operations > 1_000
    assert sum(within(calls, layer + "/").values()) <= ceiling * operations
    # Anything kept per operation holds at least a pointer, 8 bytes; under
    # one byte per operation is state being replaced, not accumulated
    # (measured: cc +32 B, the sample counter outgrowing the small-int cache
    # and one more min-RTT candidate; steer 0 B).
    assert sum(within(retained, layer + "/").values()) < operations


def test_dormant_wire_chain_costs_one_call_per_stage_and_draws_nothing():
    """Plan installed, windows closed: each of the three injectors forwards
    with one call, touches no counter and leaves its RNG stream where it was."""
    plan = FaultPlan.from_dict({"name": "dormant", "seed": 1, "faults": [
        {"name": kind, "kind": kind, "at_us": 10 ** 9, "duration_us": 1,
         "params": {"p": 0.01}} for kind in ("loss", "duplicate", "corrupt")]})
    rngs = RngRegistry(plan.seed)
    streams = [rngs.stream(f"faults.{spec.name}")
               for spec in plan.wire_faults()]
    states = [stream.getstate() for stream in streams]
    built = []

    class Discard:
        def receive(self, packet):
            pass

    def rig(packets):
        faults = FaultEngine(Engine(), plan, rng=rngs, tracer=None)
        head = faults.wrap(Discard())
        faults.start()
        built.append(faults)
        stream = [Packet(FiveTuple(1, 2, 1000, 80), i * MSS, MSS)
                  for i in range(packets)]
        return lambda: [head.receive(packet) for packet in stream]

    n = 50
    calls = within(marginal_calls(rig(n), rig(2 * n)), "faults/")
    assert calls == {("faults/injectors.py", "receive"): 3 * n}
    assert [stream.getstate() for stream in streams] == states
    for faults in built:
        assert (faults.dropped, faults.duplicated, faults.corrupted,
                faults.delayed, faults.injected) == (0, 0, 0, 0, 0)
