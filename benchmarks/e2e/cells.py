"""The four benchmark cells, built from the simulator's public constructors.

Each builder mirrors one experiment module's cell (``fig13.run_cell``,
``fig15.run_cell``, ``host_vs_fabric.run_point``, ``cc_reordering.run_point``)
with the seed and the simulated duration as arguments, so the benchmark
times exactly the universes the sweeps run — ``test_cells.py`` pins that
equivalence at each experiment's own seed and durations.

Two kinds of quantity come out of a cell and every name says which:
*host* numbers are what the simulator cost (wall seconds), *simulated*
numbers are what the modelled network did (bytes, packets, drops).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.config import JugglerConfig
from repro.core.flush import FlushReason
from repro.experiments.cc_reordering import CcParams
from repro.experiments.fig13_ofo_timeout_throughput import Fig13Params
from repro.experiments.fig15_active_flows import Fig15Params
from repro.experiments.host_vs_fabric import (
    FAULT_LEVELS,
    LOAD_LEVELS,
    HostFabricParams,
)
from repro.fabric.detector import DetectorConfig, ReorderDetector
from repro.fabric.routing import PerPacketRouting
from repro.fabric.topology import build_clos, build_netfpga_pair
from repro.faults.controller import FaultEngine
from repro.faults.experiments import gro_factory
from repro.faults.plan import FaultPlan
from repro.harness.metrics import Sampler
from repro.nic.nic import NicConfig
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.time import MS, US
from repro.tcp.config import TcpConfig
from repro.tcp.connection import Connection
from repro.workloads.rpc import RpcWorkload

@dataclass
class Cell:
    """One built experiment cell, ready for ``run()``."""

    engine: Engine
    stop_ns: int
    hosts: list
    conns: list
    #: Every lossy or queueing link of the topology, in a fixed order.
    links: list
    #: Open-loop generators (``clos_spray_fault`` only).
    rpcs: list = field(default_factory=list)
    faults: Optional[FaultEngine] = None
    detectors: list = field(default_factory=list)
    #: Periodic probe of the experiment itself (``fig15`` only).
    sampler: Optional[Sampler] = None

    def run(self) -> None:
        """Simulate the whole cell, 0 → ``stop_ns``."""
        self.engine.run_until(self.stop_ns)

    # -- simulated outcome ----------------------------------------------------

    def gro_engines(self) -> list:
        """Every per-queue GRO engine, host order then queue order."""
        return [gro for host in self.hosts for gro in host.gro_engines]

    def rx_queues(self) -> list:
        """Every NIC RX queue, host order then queue order."""
        return [q for host in self.hosts for q in host.nic.queues]

    def rx_pkts(self) -> int:
        """Simulated packets handed to GRO on any host (data and ACKs)."""
        return sum(q.delivered for q in self.rx_queues())

    def delivered_bytes(self) -> int:
        """Simulated bytes delivered in order to applications."""
        return sum(c.delivered_bytes for c in self.conns)

    def goodput_gbps(self) -> float:
        """Simulated goodput over the cell (bytes × 8 ÷ simulated ns)."""
        return self.delivered_bytes() * 8 / self.stop_ns

    def digest_fields(self) -> dict:
        """The simulated outcome a behaviour-preserving change must keep.

        Engine event counts are deliberately absent: collapsing events is
        what ROADMAP item 2 is for.
        """
        return {
            "conn_delivered_bytes": [c.delivered_bytes for c in self.conns],
            "conn_retx_pkts": [c.sender.retransmitted_packets
                               for c in self.conns],
            "conn_rx_ooo_segments": [c.receiver.ooo_segments
                                     for c in self.conns],
            "gro": [
                {
                    "packets": g.stats.packets,
                    "segments": g.stats.segments,
                    "batched_mtus": g.stats.batched_mtus,
                    "ooo_segments": g.stats.ooo_segments,
                    "merges": g.stats.merges,
                    "flush_reasons": {
                        reason.value: count for reason, count
                        in sorted(g.stats.flush_reasons.items(),
                                  key=lambda item: item[0].value)
                    },
                }
                for g in self.gro_engines()
            ],
            "link_drops": [link.stats.drops for link in self.links],
        }


def digest_of(fields: dict) -> str:
    """Stable hash of :meth:`Cell.digest_fields`."""
    blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def diff_fields(expected: dict, actual: dict, limit: int = 8) -> List[str]:
    """Human-readable differences between two digest field sets."""
    out: List[str] = []

    def walk(path: str, a, b) -> None:
        if len(out) >= limit:
            return
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(set(a) | set(b)):
                walk(f"{path}.{key}" if path else str(key),
                     a.get(key), b.get(key))
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                out.append(f"{path}: length {len(a)} -> {len(b)}")
                return
            for i, (x, y) in enumerate(zip(a, b)):
                walk(f"{path}[{i}]", x, y)
        elif a != b:
            out.append(f"{path}: {a!r} -> {b!r}")

    walk("", expected, actual)
    return out


def flush_count(cell: Cell, reason: FlushReason) -> int:
    """Segments flushed for ``reason`` across the cell's GRO engines."""
    return sum(g.stats.flush_reasons.get(reason, 0)
               for g in cell.gro_engines())


def _pair_links(bed) -> list:
    return [bed.sender_link, bed.switch.fast_queue, bed.switch.slow_queue,
            bed.reverse_link]


# -- fig13: one flow, ofo_timeout short of the reordering ---------------------

def fig13_cell(seed: int, stop_ns: int = 35 * MS,
               port_offset: int = 0) -> Cell:
    """``fig13.run_cell(Fig13Params(), 500, 300)``: one 10 Gb/s flow across
    the NetFPGA pair, τ = 500 µs, ``ofo_timeout`` = 300 µs."""
    params = Fig13Params()
    engine = Engine()
    rng = RngRegistry(seed).stream("fabric")
    config = JugglerConfig(inseq_timeout=params.inseq_timeout_us * US,
                           ofo_timeout=300 * US)
    bed = build_netfpga_pair(
        engine, rng, gro_factory("juggler", config),
        rate_gbps=params.rate_gbps,
        reorder_delay_ns=500 * US,
        nic_config=NicConfig(coalesce_ns=params.coalesce_us * US),
    )
    tcp = TcpConfig(init_cwnd=1 << 20, rx_buffer=8 << 20)
    conn = Connection(engine, bed.sender, bed.receiver, 1000 + port_offset,
                      80, tcp)
    conn.send(1 << 40)
    return Cell(engine, stop_ns, [bed.sender, bed.receiver], [conn],
                _pair_links(bed))


# -- fig15: many paced flows into four RX queues ------------------------------

#: Flows of the fig15 cell.
_FIG15_FLOWS = 256


def fig15_cell(seed: int, stop_ns: int = 55 * MS,
               port_offset: int = 0) -> Cell:
    """``fig15.run_cell(Fig15Params(), 256, 500)``: 256 paced flows totalling
    10 Gb/s into 4 RX queues, τ = 500 µs, ``ofo_timeout`` = 2τ."""
    params = Fig15Params()
    engine = Engine()
    rng = RngRegistry(seed).stream("fabric")
    config = JugglerConfig(
        inseq_timeout=params.inseq_timeout_us * US,
        ofo_timeout=1000 * US,
        table_capacity=params.table_capacity,
    )
    bed = build_netfpga_pair(
        engine, rng, gro_factory("juggler", config),
        rate_gbps=params.total_gbps,
        reorder_delay_ns=500 * US,
        nic_config=NicConfig(num_queues=params.num_rx_queues,
                             coalesce_frames=25),
    )
    per_flow = params.total_gbps / _FIG15_FLOWS
    burst_period_ns = max(1, round(64 * 1024 * 8 / per_flow))
    tcp = TcpConfig(init_cwnd=1 << 18)
    conns = []
    for i in range(_FIG15_FLOWS):
        conn = Connection(engine, bed.sender, bed.receiver,
                          5000 + port_offset + i, 80, tcp,
                          pacing_gbps=per_flow)
        engine.schedule(rng.randrange(burst_period_ns), conn.send, 1 << 40)
        conns.append(conn)

    queues = bed.receiver.nic.queues
    sampler = Sampler(engine,
                      lambda: sum(q.gro.active_list_len for q in queues),
                      params.sample_interval_us * US)
    engine.schedule(params.warmup_ms * MS, sampler.start)
    return Cell(engine, stop_ns, [bed.sender, bed.receiver], conns,
                _pair_links(bed), sampler=sampler)


# -- host_vs_fabric: Clos, per-packet spray, saturated uplink -----------------

#: Fault-window cadence (µs) of the ``host_vs_fabric`` family.
_FAULT_PERIOD_US = 2_000
#: Load level 3 (85 % of the uplinks) and fault level 1 of that family.
_CLOS_LOAD_PCT = LOAD_LEVELS[3]
_CLOS_FAULT_PARAMS, _CLOS_FAULT_WINDOW_US = FAULT_LEVELS[1]


def clos_cell(seed: int, warmup_ms: int = 1, measure_ms: int = 5,
              port_offset: int = 0) -> Cell:
    """``host_vs_fabric.run_point`` for ``juggler`` × ``per_packet`` at load
    level 3 and fault level 1."""
    params = HostFabricParams()
    engine = Engine()
    rngs = RngRegistry(seed)
    config = JugglerConfig(inseq_timeout=params.inseq_timeout_us * US,
                           ofo_timeout=params.ofo_timeout_us * US)
    detector_cfg = DetectorConfig(
        memory_budget_bytes=params.detector_budget_bytes,
        heavy_threshold_bytes=params.detector_heavy_kb * 1024,
    )
    net = build_clos(
        engine,
        gro_factory("juggler", config),
        lambda: PerPacketRouting(rngs.stream("spray")),
        n_tors=params.n_tors,
        hosts_per_tor=params.hosts_per_tor,
        n_spines=params.n_spines,
        host_rate_gbps=params.fabric_gbps,
        uplink_rate_gbps=params.fabric_gbps,
        nic_config=NicConfig(num_queues=1, coalesce_ns=30_000,
                             coalesce_frames=32),
        queue_capacity_bytes=params.queue_capacity_kb * 1024,
        detector_factory=lambda: ReorderDetector(detector_cfg),
    )

    start_us = warmup_ms * 1_000
    stop_us = (warmup_ms + measure_ms) * 1_000
    plan = FaultPlan.from_dict({
        "name": "host-vs-fabric-l1",
        "seed": seed,
        "faults": [{
            "name": "uplink-saturation-l1",
            "kind": "queue_saturation",
            "at_us": start_us,
            "duration_us": _CLOS_FAULT_WINDOW_US,
            "every_us": _FAULT_PERIOD_US,
            "repeats": max(1, (stop_us - start_us) // _FAULT_PERIOD_US),
            "params": _CLOS_FAULT_PARAMS,
        }],
    })
    fault_engine = FaultEngine(engine, plan)
    fault_engine.bind(links=[net.uplinks[0][0]])
    fault_engine.start()

    servers = net.hosts[:params.hosts_per_tor]
    clients = net.hosts[params.hosts_per_tor:2 * params.hosts_per_tor]
    total_load = (params.n_spines * params.fabric_gbps
                  * _CLOS_LOAD_PCT / 100.0)
    large_load = max(total_load - params.small_load_gbps, 0.1)
    tcp = TcpConfig(rx_buffer=4 << 20)

    def all_to_all(kind_servers, kind_clients, base_port):
        return [
            Connection(engine, server, client,
                       base_port + port_offset + (si * 16 + ci) * 8 + s,
                       80, tcp)
            for si, server in enumerate(kind_servers)
            for ci, client in enumerate(kind_clients)
            for s in range(params.sessions_per_pair)
        ]

    lp, sp = params.large_pairs, params.small_pairs
    large_conns = all_to_all(servers[:lp], clients[:lp], 30_000)
    small_conns = all_to_all(servers[lp:lp + sp], clients[lp:lp + sp], 40_000)
    large = RpcWorkload(engine, rngs.stream("large"), large_conns,
                        rpc_bytes=params.large_rpc_bytes,
                        load_gbps=large_load)
    small = RpcWorkload(engine, rngs.stream("small"), small_conns,
                        rpc_bytes=params.small_rpc_bytes,
                        load_gbps=params.small_load_gbps)
    large.start()
    small.start()

    links = [host.tx for host in net.hosts]
    links += [l for tor in net.tors for l in tor.direct_links()]
    links += [l for row in net.uplinks + net.downlinks for l in row]
    return Cell(engine, stop_us * US, net.hosts, large_conns + small_conns,
                links, rpcs=[large, small], faults=fault_engine,
                detectors=net.detectors)


# -- cc_reordering: BBR on an in-order fabric ---------------------------------

def cc_cell(seed: int, stop_ns: int = 75 * MS, port_offset: int = 0) -> Cell:
    """``cc_reordering.run_point`` for ``bbr`` at intensity 0 (τ = 0) behind
    ``StandardGRO``: four bulk flows on an in-order fabric."""
    params = CcParams()
    engine = Engine()
    rngs = RngRegistry(seed)
    config = JugglerConfig(inseq_timeout=params.inseq_timeout_us * US,
                           ofo_timeout=params.ofo_timeout_us * US)
    bed = build_netfpga_pair(
        engine, rngs.stream("fabric"), gro_factory("standard", config),
        rate_gbps=params.rate_gbps,
        reorder_delay_ns=0,
        nic_config=NicConfig(coalesce_ns=params.coalesce_us * US),
    )
    tcp = TcpConfig(cc="bbr", rx_buffer=params.rx_buffer)
    conns = [Connection(engine, bed.sender, bed.receiver,
                        1_000 + port_offset + i, 80, tcp)
             for i in range(params.flow_count)]
    stagger = rngs.stream("workload")
    for conn in conns:
        engine.schedule(stagger.randrange(200_000), conn.send, 1 << 38)
    return Cell(engine, stop_ns, [bed.sender, bed.receiver], conns,
                _pair_links(bed))


#: Seed of every random stream inside a cell (path choice, Poisson arrivals,
#: start offsets).  It is pinned: **each workload is one fixed universe**, so
#: every repetition of every run does the same simulated work and counts
#: compare exactly between commits.  A stream seed per run would not give a
#: usable host-time metric: over stream seeds 1..12 the fig13 cell is
#: bimodal (two seeds in twelve settle into a regime with 19.7k rx packets
#: and 0.36 host s against 48.1k–48.8k and 1.06–1.16 s) and the Clos cell's
#: goodput spans 38.9–57.0 Gb/s.
UNIVERSE_SEED = 7

#: ``--seed`` when none is given; the pinned digests belong to it.
DEFAULT_SEED = 7


def port_offset_of(seed: int) -> int:
    """What ``--seed`` draws: a shift of every flow's source port.  It moves
    which RSS queue, flow-table bucket and detector-sketch slot a flow lands
    in and leaves the offered work alone — on the three single-queue cells
    the universe is the same up to that relabelling; on ``fig15_many_flows``
    per-queue load and goodput move by about ±0.5 %."""
    return random.Random(seed).randrange(20_000)


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload: one fixed universe."""

    name: str
    why: str
    cell: Callable[..., Cell]

    def build(self, seed: int = DEFAULT_SEED) -> Cell:
        """The cell at its benchmark size, flow ports drawn from ``seed``."""
        return self.cell(UNIVERSE_SEED, port_offset=port_offset_of(seed))


#: Said in every ``why``: BENCHMARK.json has no other place for it.
_FIXED = "; one fixed universe, --seed only redraws flow ports"

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "fig13_ofo_short",
        "fig13 cell, ofo_timeout 300us short of tau 500us: OFO flushes leak "
        "reordering into TCP, so SACK/dupACK work is large" + _FIXED,
        fig13_cell),
    Workload(
        "fig15_many_flows",
        "fig15 cell, 256 paced flows into 4 RX queues, Juggler absorbs all "
        "reordering: flow table, OFO queues, pacing timers at their largest"
        + _FIXED,
        fig15_cell),
    Workload(
        "clos_spray_fault",
        "host_vs_fabric cell, juggler x per_packet on a Clos at 85% load, "
        "queue_saturation windows: four link hops, drops, retransmits"
        + _FIXED,
        clos_cell),
    Workload(
        "cc_bbr_inorder",
        "cc_reordering cell, 4 BBR flows, in-order fabric, StandardGRO: the "
        "bypass workload, OFO/timeout/SACK code does no work" + _FIXED,
        cc_cell),
)}
