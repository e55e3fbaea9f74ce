"""The one cell builder under every experiment module.

A *cell* is one simulated universe: engine, topology, GRO engines, TCP flows
and a workload, warmed up and then measured.  The paper has three testbeds,
so :class:`Cell` has three topologies — :meth:`~Cell.pair` (Figure 11),
:meth:`~Cell.dumbbell` (Figure 17), :meth:`~Cell.clos` (Figure 19) — plus the
traffic shapes that recur across modules and **one** measurement window,
:meth:`~Cell.measure`.  ``docs/simulator.md`` ("Anatomy of an experiment
module") says what stays in the module and why there is no ``CellSpec``.

Random draws are explicit because their order is part of a cell's identity:
:meth:`~Cell.pair` names the stream its switch (and dropper) draws from and
:meth:`~Cell.paced_flows` is handed the stream for its start offsets (fig15
hands it the very stream the switch took); the Clos traffic draws from its
own fixed streams (``large``/``small``, ``background``).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.base import DeliverFn, GroEngine
from repro.core.config import JugglerConfig
from repro.core.flush import FlushReason
from repro.cpu.costs import DEFAULT_COSTS
from repro.experiments.common import SHORT_COALESCING, gbps
from repro.fabric import topology
from repro.fabric.host import Host
from repro.fabric.link import QueuedLink
from repro.harness.experiment import GroKind, make_gro_factory
from repro.net.pool import PacketPool
from repro.net.segment import BatchingMode
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.time import US
from repro.tcp.config import TcpConfig
from repro.tcp.connection import Connection
from repro.workloads.rpc import RpcWorkload

if TYPE_CHECKING:
    from repro.cpu.core import CpuCore


@dataclass(frozen=True)
class Window:
    """Counters accumulated over ``window_ns`` of simulated time:
    :meth:`Cell.totals` since t = 0, :meth:`Cell.measure` as the difference
    of two of those, so nothing from before the warm-up cut leaks in."""

    window_ns: int
    #: In-order bytes handed to applications, summed over the cell's flows.
    delivered_bytes: int
    #: Wire packets carrying retransmitted data.
    retransmits: int
    fast_retransmits: int
    #: ACKs the TCP receivers sent.
    acks: int
    #: GRO counters, summed over every engine of the measured hosts.
    packets: int
    segments: int
    batched_mtus: int
    ooo_segments: int
    evictions: int
    #: Busy nanoseconds of the modelled RX and application cores (0 without
    #: a CPU model); see :meth:`Cell.rx_busy_ns`.
    rx_busy_ns: float
    app_busy_ns: float

    def __sub__(self, earlier: "Window") -> "Window":
        return Window(*(getattr(self, f.name) - getattr(earlier, f.name)
                        for f in fields(self)))

    @property
    def goodput_gbps(self) -> float:
        """Delivered bytes as Gb/s over the window."""
        return gbps(self.delivered_bytes, self.window_ns)

    @property
    def batching(self) -> float:
        """Batching extent: MTUs per segment GRO delivered."""
        return self.batched_mtus / self.segments if self.segments > 0 else 0.0

    @property
    def rx_core_pct(self) -> float:
        """RX-core utilisation over the window, percent."""
        return self._pct(self.rx_busy_ns)

    @property
    def app_core_pct(self) -> float:
        """App-core utilisation, percent (exceeds 100 when saturated)."""
        return self._pct(self.app_busy_ns)

    def _pct(self, busy_ns: float) -> float:
        return 100.0 * (busy_ns / self.window_ns if self.window_ns > 0 else 0.0)


class Cell:
    """Engine + RNG registry + GRO factory (+ CPU model) of one universe."""

    def __init__(self, seed: int, kind: Union[GroKind, str], *,
                 inseq_us: int, ofo_us: int, cpu: bool = False, **juggler):
        """``inseq_us``/``ofo_us`` are the two GRO timeouts in the unit every
        ``*Params`` speaks; ``juggler`` names any further
        :class:`JugglerConfig` field (``table_capacity``, ...)."""
        self.engine = Engine()
        self.rngs = RngRegistry(seed)
        self.gro_factory = make_gro_factory(
            kind,
            JugglerConfig(inseq_timeout=inseq_us * US,
                          ofo_timeout=ofo_us * US, **juggler))
        #: The CPU model, None without one: an application core, coupled
        #: to a host by :meth:`measure_host`, and every GRO engine the
        #: factory builds, whose counters price the RX core.
        self.app_core: Optional[CpuCore] = None
        self.rx_engines: List[GroEngine] = []
        if cpu:
            from repro.cpu.core import CpuCore

            self.app_core = CpuCore(self.engine, "app")
            self._merge_mode = (BatchingMode.LINKED_LIST
                                if GroKind.of(kind) is GroKind.CHAINED
                                else BatchingMode.FRAGS_ARRAY)
            build = self.gro_factory

            def recorded(deliver: DeliverFn) -> GroEngine:
                gro = build(deliver)
                self.rx_engines.append(gro)
                return gro

            self.gro_factory = recorded
        #: Hosts whose GRO engines :meth:`measure` sums.
        self.measured: List[Host] = []
        #: Every connection made through :meth:`flows` and friends.
        self.conns: List[Connection] = []

    # -- the three testbeds ---------------------------------------------------

    def pair(self, stream: str, **kwargs) -> topology.NetfpgaTestbed:
        """Figure 11: two hosts across the NetFPGA reordering switch, which
        (with the optional dropper) draws from ``rngs.stream(stream)``.
        The receiver is the measured host."""
        bed = topology.build_netfpga_pair(
            self.engine, self.rngs.stream(stream), self.gro_factory, **kwargs)
        self.measure_host(bed.receiver)
        return bed

    def dumbbell(self, line_rate_gbps: float) -> topology.PriorityDumbbell:
        """Figure 17: two senders and two receivers across a two-priority
        bottleneck, every port at line rate.  Every host is measured until
        :meth:`measure_host`."""
        bed = topology.build_priority_dumbbell(
            self.engine, self.gro_factory, host_rate_gbps=line_rate_gbps,
            bottleneck_gbps=line_rate_gbps, nic_config=SHORT_COALESCING)
        self.measured = bed.senders + bed.receivers
        return bed

    def clos(self, policy_factory: topology.PolicyFactory, rate_gbps: float,
             **kwargs) -> topology.ClosNetwork:
        """Figure 19: the two-stage Clos, one routing policy per ToR, host
        and fabric links all at ``rate_gbps``.  Every host is measured
        until :meth:`measure_host`."""
        net = topology.build_clos(
            self.engine, self.gro_factory, policy_factory,
            host_rate_gbps=rate_gbps, uplink_rate_gbps=rate_gbps, **kwargs)
        self.measured = list(net.hosts)
        return net

    def measure_host(self, host: Host) -> None:
        """Restrict GRO counters to ``host`` and run its TCP endpoints on
        the modelled application core (when the cell has a CPU model)."""
        self.measured = [host]
        if self.app_core is not None:
            host.app_core = self.app_core

    # -- traffic --------------------------------------------------------------

    def flows(self, src: Host, dst: Host, n: int, base_port: int,
              tcp: Optional[TcpConfig] = None) -> List[Connection]:
        """``n`` connections ``src`` → ``dst`` on consecutive source ports;
        the caller decides when and how much each sends."""
        conns = [Connection(self.engine, src, dst, base_port + i, 80, tcp)
                 for i in range(n)]
        self.conns += conns
        return conns

    def paced_flows(self, senders: Sequence[Host], receiver: Host, n: int,
                    total_gbps: float, base_port: int, tcp: TcpConfig,
                    rng: random.Random, nbytes: int) -> List[Connection]:
        """``n`` flows paced to ``total_gbps`` in aggregate, round-robin
        over ``senders``.  Starts are staggered across one pacing period —
        one ``rng.randrange`` per flow, in flow order — so the aggregate is
        smooth from t = 0 (testbed flows were long-running, not
        synchronised)."""
        per_flow = total_gbps / n
        burst_period_ns = max(1, round(64 * 1024 * 8 / per_flow))
        conns = []
        for i in range(n):
            conn = Connection(self.engine, senders[i % len(senders)],
                              receiver, base_port + i, 80, tcp,
                              pacing_gbps=per_flow)
            self.engine.schedule(rng.randrange(burst_period_ns),
                                 conn.send, nbytes)
            conns.append(conn)
        self.conns += conns
        return conns

    def rpc_load(self, conns: List[Connection], stream: str, rpc_bytes: int,
                 load_gbps: float) -> RpcWorkload:
        """Open-loop Poisson RPCs multiplexed over ``conns``, started."""
        workload = RpcWorkload(self.engine, self.rngs.stream(stream), conns,
                               rpc_bytes=rpc_bytes, load_gbps=load_gbps)
        workload.start()
        return workload

    def rpc_mix(self, servers: Sequence[Host], clients: Sequence[Host], mix,
                total_load_gbps: float) -> Tuple[RpcWorkload, RpcWorkload]:
        """Figure 20's traffic: the first ``mix.large_pairs`` server/client
        pairs run all-to-all large RPCs, the next ``mix.small_pairs``
        all-to-all small ones, over ``mix.sessions_per_pair`` long-lived
        sessions per pair.  ``mix`` is the module's ``*Params`` (it also
        reads the two ``*_rpc_bytes`` and ``small_load_gbps``)."""
        tcp = TcpConfig(rx_buffer=4 << 20)

        def all_to_all(hosts: slice, base_port: int) -> List[Connection]:
            conns = [Connection(self.engine, server, client,
                                base_port + (si * 16 + ci) * 8 + s, 80, tcp)
                     for si, server in enumerate(servers[hosts])
                     for ci, client in enumerate(clients[hosts])
                     for s in range(mix.sessions_per_pair)]
            self.conns += conns
            return conns

        lp, sp = mix.large_pairs, mix.small_pairs
        large = self.rpc_load(
            all_to_all(slice(lp), 30_000), "large", mix.large_rpc_bytes,
            max(total_load_gbps - mix.small_load_gbps, 0.1))
        small = self.rpc_load(
            all_to_all(slice(lp, lp + sp), 40_000), "small",
            mix.small_rpc_bytes, mix.small_load_gbps)
        return large, small

    def background(self, net: topology.ClosNetwork, sink_host: Host,
                   load_gbps: float, rate_gbps: float) -> None:
        """Poisson load on ToR 0's uplinks, routed to a discard sink under
        ToR 1 next to ``sink_host`` (its own downlink, so it does not queue
        behind the measured flows at the receiver's port)."""
        from repro.workloads.background import DiscardSink, PoissonPacketSource

        pool = PacketPool()
        bg_dst = sink_host.host_id + 1_000_000  # synthetic, never a host
        net.tors[1].add_route(
            bg_dst, QueuedLink(self.engine, rate_gbps, DiscardSink(pool),
                               name="bg-sink"))
        for s, spine in enumerate(net.spines):
            spine.add_route(bg_dst, net.downlinks[s][1])
        PoissonPacketSource(
            self.engine, self.rngs.stream("background"), net.tors[0],
            load_gbps=load_gbps, src=99, dst=bg_dst, pool=pool).start()

    # -- measurement ----------------------------------------------------------

    def gro_engines(self) -> List[GroEngine]:
        """Every per-queue GRO engine of the measured hosts."""
        return [gro for host in self.measured for gro in host.gro_engines]

    def flush_reasons(self) -> Dict[FlushReason, int]:
        """Table-2 flush counts since t = 0, summed over the engines."""
        out: Dict[FlushReason, int] = Counter()
        for gro in self.gro_engines():
            out.update(gro.stats.flush_reasons)
        return out

    def rx_busy_ns(self) -> float:
        """RX-core busy nanoseconds since t = 0: the cost table's price of
        the counters of *every* engine the factory built — the senders'
        ACK-path engines too, not only :meth:`gro_engines` — all on one
        core, the paper's "all flows on a single RX queue"."""
        return sum((DEFAULT_COSTS.rx_busy_ns(gro.stats, self._merge_mode)
                    for gro in self.rx_engines), 0.0)

    def totals(self) -> Window:
        """Every counter since t = 0."""
        stats = [gro.stats for gro in self.gro_engines()]
        conns = self.conns
        return Window(
            self.engine.now,
            sum(c.delivered_bytes for c in conns),
            sum(c.sender.retransmitted_packets for c in conns),
            sum(c.sender.fast_retransmits for c in conns),
            sum(c.receiver.acks_sent for c in conns),
            sum(s.packets for s in stats),
            sum(s.segments for s in stats),
            sum(s.batched_mtus for s in stats),
            sum(s.ooo_segments for s in stats),
            sum(s.total_evictions for s in stats),
            self.rx_busy_ns() if self.app_core else 0.0,
            self.app_core.busy_ns if self.app_core else 0.0,
        )

    def measure(self, warmup_ns: int, stop_ns: int) -> Window:
        """Run to ``warmup_ns``, cut, run to ``stop_ns``: the one window."""
        self.engine.run_until(warmup_ns)
        before = self.totals()
        self.engine.run_until(stop_ns)
        return self.totals() - before
