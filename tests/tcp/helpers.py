"""A minimal two-host rig for transport tests: direct links, no switch."""

from __future__ import annotations

from repro.core.config import JugglerConfig
from repro.core.juggler import JugglerGRO
from repro.core.standard_gro import StandardGRO
from repro.fabric.host import Host
from repro.fabric.link import QueuedLink
from repro.nic.nic import NicConfig
from repro.sim.engine import Engine


class DirectPair:
    """host_a <-> host_b over plain 10 Gb/s links with fast interrupts."""

    def __init__(self, engine: Engine, *, gro="juggler", rate_gbps=10.0,
                 coalesce_ns=5_000, link_kwargs=None):
        if gro == "juggler":
            factory = lambda d: JugglerGRO(d, JugglerConfig())
        else:
            factory = lambda d: StandardGRO(d)
        nic = NicConfig(coalesce_ns=coalesce_ns)
        self.a = Host(engine, 0, factory, nic_config=nic, name="a")
        self.b = Host(engine, 1, factory, nic_config=nic, name="b")
        kwargs = link_kwargs or {}
        self.link_ab = QueuedLink(engine, rate_gbps, self.b, **kwargs)
        self.link_ba = QueuedLink(engine, rate_gbps, self.a, **kwargs)
        self.a.attach_tx(self.link_ab)
        self.b.attach_tx(self.link_ba)
