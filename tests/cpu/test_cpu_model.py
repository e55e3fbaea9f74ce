"""Cost table, saturating cores, and the RX core priced from GRO counters."""

import pytest

from repro.core.chained_gro import ChainedGRO
from repro.core.config import JugglerConfig
from repro.core.standard_gro import StandardGRO
from repro.cpu.core import CpuCore
from repro.cpu.costs import DEFAULT_COSTS
from repro.harness.experiment import GroKind, make_gro_factory
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet
from repro.net.segment import BatchingMode
from repro.nic.nic import Nic, NicConfig
from repro.sim.engine import Engine
from repro.sim.time import US

from ..differential import reordered_stream

FLOW = FiveTuple(1, 2, 1000, 80)


# --- CpuCore --------------------------------------------------------------------


def test_meter_accumulates():
    core = CpuCore(Engine())
    core.submit(100)
    core.submit(50.5)
    assert core.busy_ns == 150.5


def test_meter_rejects_negative():
    core = CpuCore(Engine())
    with pytest.raises(ValueError):
        core.submit(-1)
    assert core.busy_ns == 0.0


def test_core_serialises_jobs():
    engine = Engine()
    core = CpuCore(engine)
    done = []
    core.submit(100, done.append, "a")
    core.submit(100, done.append, "b")
    engine.run()
    assert done == ["a", "b"]
    assert engine.now == 200


def test_core_backlog_grows_under_overload():
    engine = Engine()
    core = CpuCore(engine)
    done = [core.submit(1000) for _ in range(10)]
    assert done[-1] - engine.now == 10_000


def test_core_idles_between_jobs():
    engine = Engine()
    core = CpuCore(engine)
    core.submit(100, lambda: None)
    engine.run()
    engine.schedule(900, lambda: None)
    engine.run()
    core.submit(100, lambda: None)
    engine.run()
    # Second job starts at t=1000, not queued behind idle time.
    assert engine.now == 1100


def test_core_rejects_negative_work():
    with pytest.raises(ValueError):
        CpuCore(Engine()).submit(-5)


# --- the RX core: cost x counter ------------------------------------------------


def one_poll(gro):
    """Four in-order MSS packets and one pure ACK, one poll."""
    gro.receive_batch([Packet(FLOW, k * MSS, MSS) for k in range(4)]
                      + [Packet(FLOW.reversed(), 0, 0)], now=0)
    gro.poll_complete(now=0)
    return gro.stats


@pytest.mark.parametrize("make, mode, expected", [
    # 5 packets x (220 rx + 60 gro) + 3 merges x 25 frag + 1 segment x 450
    # + 1 poll x 1500 = 1400 + 75 + 450 + 1500
    (StandardGRO, BatchingMode.FRAGS_ARRAY, 3425.0),
    # the same, each merge a 180 ns chain link: 1400 + 540 + 450 + 1500
    (ChainedGRO, BatchingMode.LINKED_LIST, 3890.0),
], ids=["frags_array", "linked_list"])
def test_rx_busy_ns_prices_one_poll(make, mode, expected):
    stats = one_poll(make(lambda segment: None))
    assert (stats.packets, stats.passthrough_packets, stats.merges,
            stats.nodes_scanned, stats.segments, stats.polls) == (
                4, 1, 3, 0, 1, 1)
    assert DEFAULT_COSTS.rx_busy_ns(stats, mode) == expected


@pytest.mark.parametrize("kind", list(GroKind), ids=lambda k: k.value)
def test_gro_polls_equal_napi_polls(kind):
    """``GroStats.polls`` is the poll term of the RX price: one per NAPI
    poll the queue ran, whichever engine it feeds."""
    engine = Engine()
    nic = Nic(engine, lambda segment: None,
              make_gro_factory(kind, JugglerConfig()),
              NicConfig(num_queues=4, coalesce_ns=10 * US))
    stream = reordered_stream(16, 24, window=4, seed=7)
    for k in range(0, len(stream), 32):
        for p in stream[k:k + 32]:
            nic.receive(p)
        engine.run_until(engine.now + 20 * US)
    assert sum(queue.polls for queue in nic.queues) > 4
    for queue in nic.queues:
        assert queue.gro.stats.polls == queue.polls


def test_cost_table_immutable():
    with pytest.raises(Exception):
        DEFAULT_COSTS.rx_per_packet = 0  # frozen dataclass
