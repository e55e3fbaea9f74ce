"""Figure 16: active-list length statistics under the realistic Clos
workload, plus the loss-recovery list.

Setup (§5.2.2): the Figure 10 scenario — 256 flows at 20 Gb/s aggregate into
one RX queue on the two-stage Clos with 50%-loaded uplinks and per-packet
load balancing; the active-list length is sampled periodically.  Run twice:
with a 40 Gb/s receiver port and a 10 Gb/s one.

Paper results: at 40 Gb/s the average length is below 1 and the 99th
percentile below 5; at 10 Gb/s TSO segments spend 3× longer on the wire so
the list is somewhat longer, but p99 stays below 6.  The loss-recovery list
is almost always empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.cell import Cell
from repro.fabric.link import QueuedLink
from repro.fabric.routing import PerPacketRouting
from repro.harness.experiment import GroKind
from repro.harness.metrics import Histogram, Sampler, percentile
from repro.harness.reporting import format_table
from repro.nic.nic import NicConfig
from repro.sim.time import MS, US
from repro.tcp.config import TcpConfig

#: The Clos links' speed; the receiver's own port is the swept axis.
FABRIC_GBPS = 40.0


@dataclass(frozen=True)
class Fig16Params:
    """Experiment configuration."""

    receiver_ports_gbps: tuple = (40.0, 10.0)
    num_flows: int = 256
    target_gbps: float = 20.0
    background_gbps: float = 20.0
    inseq_timeout_us: int = 13
    ofo_timeout_us: int = 100
    sample_interval_us: int = 100
    warmup_ms: int = 8
    measure_ms: int = 20
    seed: int = 16


@dataclass
class Fig16Point:
    """One panel (one receiver port speed)."""

    receiver_port_gbps: float
    mean_active: float
    p99_active: float
    max_active: int
    fraction_at_most_5: float
    mean_loss_recovery: float
    max_loss_recovery: int


#: Sweep axes: (point field, params grid field).
POINT_AXES = (("receiver_port_gbps", "receiver_ports_gbps"),)


def run_point(params: Fig16Params, *,
              receiver_port_gbps: float) -> Fig16Point:
    """One receiver-port-speed measurement."""
    cell = Cell(params.seed, GroKind.JUGGLER, inseq_us=params.inseq_timeout_us,
                ofo_us=params.ofo_timeout_us, cpu=True)
    net = cell.clos(
        lambda: PerPacketRouting(cell.rngs.stream("spray")),
        FABRIC_GBPS,
        n_tors=2,
        hosts_per_tor=8,
        n_spines=2,
        nic_config=NicConfig(num_queues=1, coalesce_frames=32),
    )
    receiver = net.hosts[8]
    cell.measure_host(receiver)
    # Narrow the receiver's access port when reproducing the 10G panel;
    # target throughput is capped to fit through it.
    net.tors[1].add_route(
        receiver.host_id,
        QueuedLink(cell.engine, receiver_port_gbps, receiver, name="rx-port"),
    )
    cell.paced_flows(
        net.hosts[:8], receiver, params.num_flows,
        min(params.target_gbps, receiver_port_gbps * 0.8), 7000,
        TcpConfig(init_cwnd=1 << 18), cell.rngs.stream("flow-start"), 1 << 40)
    cell.background(net, net.hosts[9], params.background_gbps,
                    FABRIC_GBPS)

    gro = receiver.gro_engines[0]
    active_hist = Histogram()
    loss_samples: List[float] = []

    def probe() -> float:
        active_hist.add(gro.active_list_len)
        loss_samples.append(gro.loss_recovery_list_len)
        return gro.active_list_len

    sampler = Sampler(cell.engine, probe, params.sample_interval_us * US)
    cell.engine.schedule(params.warmup_ms * MS, sampler.start)
    cell.measure(params.warmup_ms * MS,
                 (params.warmup_ms + params.measure_ms) * MS)

    values = sampler.values()
    return Fig16Point(
        receiver_port_gbps=receiver_port_gbps,
        mean_active=sum(values) / len(values) if values else 0.0,
        p99_active=percentile(values, 99),
        max_active=int(max(values)) if values else 0,
        fraction_at_most_5=active_hist.fraction_at_most(5),
        mean_loss_recovery=(sum(loss_samples) / len(loss_samples)
                            if loss_samples else 0.0),
        max_loss_recovery=int(max(loss_samples)) if loss_samples else 0,
    )


def render(points: List[Fig16Point]) -> str:
    """Both panels as one table."""
    rows = [
        (f"{p.receiver_port_gbps:g}G", round(p.mean_active, 2),
         round(p.p99_active, 1), p.max_active,
         round(p.fraction_at_most_5, 4),
         round(p.mean_loss_recovery, 3), p.max_loss_recovery)
        for p in points
    ]
    return format_table(
        ["rx_port", "mean_active", "p99_active", "max_active",
         "frac_active<=5", "mean_loss_list", "max_loss_list"],
        rows,
    )
