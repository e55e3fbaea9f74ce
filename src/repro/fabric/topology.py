"""Testbed topology builders — the paper's three experimental setups.

* :func:`build_netfpga_pair` — Figure 11: two hosts across a NetFPGA-10G
  switch with a configurable reordering delay (used by Figs. 12, 13, 14).
* :func:`build_priority_dumbbell` — Figure 17: senders and receivers across
  a strict-priority bottleneck (Figures 1 and 18).
* :func:`build_clos` — Figure 19: a parametric two-stage Clos with
  selectable load-balancing granularity (Figures 9, 10, 15, 16, 20).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.fabric.host import Host
from repro.fabric.link import QueuedLink
from repro.fabric.netfpga import ReorderingSwitch
from repro.fabric.routing import RoutingPolicy
from repro.fabric.switch import Switch
from repro.faults.controller import FaultEngine
from repro.faults.plan import FaultPlan
from repro.nic.nic import GroFactory, NicConfig
from repro.sim.engine import Engine
from repro.steer.policy import SteeringPolicy

if TYPE_CHECKING:
    from repro.faults.injectors import LossInjector

#: Builds a routing policy; one instance per switch so round-robin state
#: (and any RNG) is not shared across switches.
PolicyFactory = Callable[[], RoutingPolicy]


@dataclass
class NetfpgaTestbed:
    """Figure 11's two-host reordering rig."""

    sender: Host
    receiver: Host
    switch: ReorderingSwitch
    #: Optional uniform dropper in front of the receiver (Figure 14).
    dropper: Optional[LossInjector]
    #: Sender-side serialisation link (the 10G port).
    sender_link: QueuedLink
    #: Reverse (ACK) path link.
    reverse_link: QueuedLink
    #: Armed fault engine when a fault plan is active (see repro.faults).
    faults: Optional[FaultEngine] = None


def build_netfpga_pair(
    engine: Engine,
    rng: random.Random,
    gro_factory: GroFactory,
    *,
    rate_gbps: float = 10.0,
    reorder_delay_ns: int = 250_000,
    drop_p: float = 0.0,
    nic_config: Optional[NicConfig] = None,
    sender_gro_factory: Optional[GroFactory] = None,
    fault_plan: Optional[FaultPlan] = None,
    receiver_steering: Optional[SteeringPolicy] = None,
) -> NetfpgaTestbed:
    """Two hosts joined by a reordering switch on the data direction.

    Data (host 0 → host 1) traverses the sender's line-rate port, then the
    two-queue reordering switch, then (optionally) a uniform dropper.  ACKs
    return over a plain link so control traffic is never reordered — the
    same asymmetry the testbed had.

    When a fault plan is supplied, its wire faults are chained in front of
    the receiver and its link/NIC faults are bound to the data-direction
    queues; host-layer faults need receivers bound by the caller via
    ``testbed.faults.bind(receivers=...)``.  With no plan the packet path
    is untouched.

    ``receiver_steering`` selects the receiver NIC's steering policy
    (default RSS); the ``fdir_reordering`` experiments pass a
    :class:`~repro.steer.flow_director.FlowDirectorSteering` here.
    """
    receiver = Host(engine, 1, gro_factory, nic_config=nic_config,
                    name="receiver", steering=receiver_steering)
    sender = Host(
        engine,
        0,
        sender_gro_factory if sender_gro_factory is not None else gro_factory,
        nic_config=nic_config,
        name="sender",
    )

    faults: Optional[FaultEngine] = None
    into_receiver = receiver
    if fault_plan is not None:
        faults = FaultEngine(engine, fault_plan)
        into_receiver = faults.wrap(receiver)

    dropper = None
    if drop_p > 0.0:
        from repro.faults.injectors import LossInjector

        dropper = LossInjector(into_receiver, rng, drop_p)
    switch = ReorderingSwitch(
        engine,
        dropper if dropper is not None else into_receiver,
        rng,
        rate_gbps=rate_gbps,
        delay_ns=reorder_delay_ns,
    )
    sender_link = QueuedLink(engine, rate_gbps, switch, name="sender-port")
    sender.attach_tx(sender_link)

    reverse_link = QueuedLink(engine, rate_gbps, sender, name="ack-path")
    receiver.attach_tx(reverse_link)

    if faults is not None:
        faults.bind(
            links=[sender_link, switch.fast_queue, switch.slow_queue],
            rxqueues=list(receiver.nic.queues),
            nics=[receiver.nic],
        )
        faults.start()

    return NetfpgaTestbed(sender, receiver, switch, dropper,
                          sender_link, reverse_link, faults)


@dataclass
class PriorityDumbbell:
    """Figure 17's strict-priority bottleneck testbed."""

    senders: List[Host]
    receivers: List[Host]
    #: The contended inter-ToR link, two strict priorities.
    bottleneck: QueuedLink
    left_tor: Switch
    right_tor: Switch


def build_priority_dumbbell(
    engine: Engine,
    gro_factory: GroFactory,
    *,
    n_senders: int = 2,
    n_receivers: int = 2,
    host_rate_gbps: float = 40.0,
    bottleneck_gbps: float = 40.0,
    queue_capacity_bytes: Optional[int] = 512 * 1024,
    ecn_threshold_bytes: Optional[int] = 100 * 1024,
    nic_config: Optional[NicConfig] = None,
) -> PriorityDumbbell:
    """Senders on the left ToR, receivers on the right, one shared
    two-priority bottleneck between the ToRs.

    The bottleneck's queues have finite buffers (``queue_capacity_bytes``
    per priority level) — loss there is what drives the TCP flows to their
    fair shares before the guarantee controller starts.
    """
    left_tor = Switch("left-tor")
    right_tor = Switch("right-tor")

    senders: List[Host] = []
    for i in range(n_senders):
        host = Host(engine, i, gro_factory, nic_config=nic_config,
                    name=f"sender{i}")
        # Host access links do not ECN-mark: marking is a switch-queue
        # behaviour; a host's own NIC queue is invisible to DCTCP.
        host.attach_tx(QueuedLink(engine, host_rate_gbps, left_tor,
                                  capacity_bytes=queue_capacity_bytes,
                                  name=f"sender{i}-up"))
        left_tor.add_route(
            host.host_id,
            QueuedLink(engine, host_rate_gbps, host,
                       capacity_bytes=queue_capacity_bytes,
                       name=f"sender{i}-down"),
        )
        senders.append(host)

    receivers: List[Host] = []
    for i in range(n_receivers):
        host_id = 100 + i
        host = Host(engine, host_id, gro_factory, nic_config=nic_config,
                    name=f"receiver{i}")
        host.attach_tx(QueuedLink(engine, host_rate_gbps, right_tor,
                                  capacity_bytes=queue_capacity_bytes,
                                  name=f"receiver{i}-up"))
        right_tor.add_route(
            host_id,
            QueuedLink(engine, host_rate_gbps, host,
                       capacity_bytes=queue_capacity_bytes,
                       name=f"receiver{i}-down"),
        )
        receivers.append(host)

    bottleneck = QueuedLink(
        engine, bottleneck_gbps, right_tor, priorities=2,
        capacity_bytes=queue_capacity_bytes,
        ecn_threshold_bytes=ecn_threshold_bytes, name="bottleneck"
    )
    left_tor.add_uplink(bottleneck)
    reverse = QueuedLink(engine, bottleneck_gbps, left_tor, priorities=2,
                         name="bottleneck-rev")
    right_tor.add_uplink(reverse)

    return PriorityDumbbell(senders, receivers, bottleneck, left_tor, right_tor)


@dataclass
class ClosNetwork:
    """A two-stage Clos fabric (Figure 19)."""

    hosts: List[Host]
    tors: List[Switch]
    spines: List[Switch]
    #: ToR→spine links, indexed [tor][spine] — the contended uplinks.
    uplinks: List[List[QueuedLink]] = field(default_factory=list)
    #: spine→ToR links, indexed [spine][tor].
    downlinks: List[List[QueuedLink]] = field(default_factory=list)
    #: Per-ToR reordering detectors when a detector_factory was supplied
    #: (see repro.fabric.detector); empty otherwise.
    detectors: List = field(default_factory=list)

    def hosts_of_tor(self, tor_index: int, hosts_per_tor: int) -> List[Host]:
        """The hosts attached to one ToR."""
        return self.hosts[tor_index * hosts_per_tor:(tor_index + 1) * hosts_per_tor]


def build_clos(
    engine: Engine,
    gro_factory: GroFactory,
    policy_factory: PolicyFactory,
    *,
    n_tors: int = 2,
    hosts_per_tor: int = 8,
    n_spines: int = 2,
    host_rate_gbps: float = 40.0,
    uplink_rate_gbps: float = 40.0,
    nic_config: Optional[NicConfig] = None,
    queue_capacity_bytes: Optional[int] = None,
    ecn_threshold_bytes: Optional[int] = None,
    detector_factory: Optional[Callable] = None,
) -> ClosNetwork:
    """Build hosts ↔ ToRs ↔ spines with one uplink per (ToR, spine) pair.

    Host ids are assigned ``tor_index * hosts_per_tor + i``.  Each ToR
    load-balances non-local traffic over its spine uplinks using a fresh
    policy from ``policy_factory`` — swap in ECMP / per-TSO / per-packet to
    reproduce the Figure 20 comparison.

    Two fabric-side extensions wire themselves in automatically:

    * If the ToR policies are flowcut policies (they expose
      ``packet_exited``), every spine→ToR downlink terminates in an
      :class:`~repro.fabric.flowcut.ExitTap` that notifies the *source*
      ToR's policy at the path reconvergence point, and the policies are
      switched to exact in-flight drain detection — the configuration
      whose in-order delivery the property tests prove.
    * If ``detector_factory`` is given, each ToR gets a fresh reordering
      detector (see :mod:`repro.fabric.detector`) observing its host-bound
      data packets; they are returned in ``ClosNetwork.detectors`` in ToR
      order.
    """
    tors = [Switch(f"tor{t}", policy=policy_factory(), engine=engine)
            for t in range(n_tors)]
    spines = [Switch(f"spine{s}") for s in range(n_spines)]

    detectors: List = []
    if detector_factory is not None:
        for tor in tors:
            detector = detector_factory()
            tor.attach_detector(detector)
            detectors.append(detector)

    # Flowcut policies need exit notifications from the reconvergence
    # point; map a packet back to its source ToR's policy by host id.
    exact_policies = [
        tor.policy if hasattr(tor.policy, "packet_exited") else None
        for tor in tors
    ]
    wire_taps = any(p is not None for p in exact_policies)
    if wire_taps:
        from repro.fabric.flowcut import ExitTap

        for policy in exact_policies:
            if policy is not None:
                policy.track_inflight()

    def _resolve(packet, _policies=exact_policies, _hpt=hosts_per_tor):
        src_tor = packet.flow.src // _hpt
        if 0 <= src_tor < len(_policies):
            return _policies[src_tor]
        return None

    hosts: List[Host] = []
    for t, tor in enumerate(tors):
        for i in range(hosts_per_tor):
            host_id = t * hosts_per_tor + i
            host = Host(engine, host_id, gro_factory, nic_config=nic_config,
                        name=f"h{host_id}")
            host.attach_tx(
                QueuedLink(engine, host_rate_gbps, tor, name=f"h{host_id}-up")
            )
            tor.add_route(
                host_id,
                QueuedLink(engine, host_rate_gbps, host,
                           capacity_bytes=queue_capacity_bytes,
                           ecn_threshold_bytes=ecn_threshold_bytes,
                           name=f"h{host_id}-down"),
            )
            hosts.append(host)

    uplinks: List[List[QueuedLink]] = []
    for t, tor in enumerate(tors):
        row = []
        for s, spine in enumerate(spines):
            link = QueuedLink(engine, uplink_rate_gbps, spine,
                              capacity_bytes=queue_capacity_bytes,
                              ecn_threshold_bytes=ecn_threshold_bytes,
                              name=f"tor{t}-spine{s}")
            tor.add_uplink(link)
            row.append(link)
        uplinks.append(row)

    downlinks: List[List[QueuedLink]] = []
    for s, spine in enumerate(spines):
        row = []
        for t, tor in enumerate(tors):
            sink = ExitTap(tor, _resolve) if wire_taps else tor
            link = QueuedLink(engine, uplink_rate_gbps, sink,
                              capacity_bytes=queue_capacity_bytes,
                              ecn_threshold_bytes=ecn_threshold_bytes,
                              name=f"spine{s}-tor{t}")
            for i in range(hosts_per_tor):
                spine.add_route(t * hosts_per_tor + i, link)
            row.append(link)
        downlinks.append(row)

    return ClosNetwork(hosts, tors, spines, uplinks, downlinks, detectors)
