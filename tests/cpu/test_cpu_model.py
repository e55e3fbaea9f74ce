"""Cost table, meters, saturating cores and GRO accounting."""

import pytest

from repro.cpu.accounting import GroCpuAccountant
from repro.cpu.core import CpuCore
from repro.cpu.costs import DEFAULT_COSTS
from repro.cpu.meter import CoreMeter
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet
from repro.net.segment import BatchingMode, Segment
from repro.sim.engine import Engine

FLOW = FiveTuple(1, 2, 1000, 80)


def seg(n=1):
    packets = [Packet(FLOW, i * MSS, MSS) for i in range(n)]
    return Segment(packets)


# --- CoreMeter -----------------------------------------------------------------


def test_meter_accumulates():
    meter = CoreMeter()
    meter.charge(100)
    meter.charge(50)
    assert meter.busy_ns == 150


def test_meter_rejects_negative():
    with pytest.raises(ValueError):
        CoreMeter().charge(-1)


# --- CpuCore --------------------------------------------------------------------


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
    for _ in range(10):
        core.submit(1000)
    assert core.backlog_ns == 10_000


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


def test_core_jobs_completed_counter():
    engine = Engine()
    core = CpuCore(engine)
    core.submit(10, lambda: None)
    core.submit(10)  # no callback still counts
    engine.run()
    assert core.jobs_completed == 2


def test_core_rejects_negative_work():
    with pytest.raises(ValueError):
        CpuCore(Engine()).submit(-5)


def test_core_charge_without_queueing():
    engine = Engine()
    core = CpuCore(engine)
    core.charge(500)
    assert core.meter.busy_ns == 500


# --- accounting -----------------------------------------------------------------


def test_accountant_prices_operations():
    meter = CoreMeter()
    acct = GroCpuAccountant(meter)
    acct.on_rx_packet()
    acct.on_gro_packet()
    expected = DEFAULT_COSTS.rx_per_packet + DEFAULT_COSTS.gro_per_packet
    assert meter.busy_ns == pytest.approx(expected)


def test_accountant_chain_merge_costs_more():
    meter = CoreMeter()
    acct = GroCpuAccountant(meter)
    acct.on_merge(BatchingMode.FRAGS_ARRAY)
    frag_cost = meter.busy_ns
    acct.on_merge(BatchingMode.LINKED_LIST)
    chain_cost = meter.busy_ns - frag_cost
    assert chain_cost > 3 * frag_cost  # the Figure 3 cache-miss penalty


def test_accountant_node_scans_scale():
    meter = CoreMeter()
    acct = GroCpuAccountant(meter)
    acct.on_node_scan(10)
    assert meter.busy_ns == pytest.approx(10 * DEFAULT_COSTS.gro_node_scan)
    acct.on_node_scan(0)  # free
    assert meter.busy_ns == pytest.approx(10 * DEFAULT_COSTS.gro_node_scan)


def test_accountant_flush_segment():
    meter = CoreMeter()
    acct = GroCpuAccountant(meter)
    acct.on_flush_segment(seg())
    assert meter.busy_ns == pytest.approx(DEFAULT_COSTS.rx_per_segment)


def test_cost_table_immutable():
    with pytest.raises(Exception):
        DEFAULT_COSTS.rx_per_packet = 0  # frozen dataclass
