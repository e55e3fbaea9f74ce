"""Uplink selection policies — the load-balancing granularities of Figure 20.

* :class:`EcmpRouting` — per-flow hashing, the status quo the paper's §2.2
  criticises: one elephant pins one path.
* :class:`PerTsoRouting` — Presto-style: every 64 KB TSO burst is sprayed as
  a unit, so packets inside a burst stay ordered but bursts interleave.
* :class:`PerPacketRouting` — the finest granularity, ideal balance, and the
  one that needs Juggler: consecutive packets of one flow take different
  paths and can reorder.
"""

from __future__ import annotations

import abc
import random
from typing import Optional

from repro.net.packet import Packet
from repro.trace import runtime as trace_runtime


class RoutingPolicy(abc.ABC):
    """Chooses an uplink index for each packet."""

    @abc.abstractmethod
    def choose(self, packet: Packet, nports: int) -> int:
        """Return the uplink index in ``[0, nports)`` for ``packet``."""

    @staticmethod
    def _mix(value: int, salt: int) -> int:
        """Cheap integer hash, independent of the NIC's RSS function."""
        h = (value ^ salt) * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 31
        return h


class EcmpRouting(RoutingPolicy):
    """Hash the five-tuple: all packets of a flow share one path."""

    def __init__(self, salt: int = 0x5CA1AB1E):
        self.salt = salt

    def choose(self, packet: Packet, nports: int) -> int:
        return self._mix(hash(packet.flow), self.salt) % nports


class PerTsoRouting(RoutingPolicy):
    """Hash (five-tuple, TSO burst id): bursts spray, packets inside don't."""

    def __init__(self, salt: int = 0x7E570):
        self.salt = salt

    def choose(self, packet: Packet, nports: int) -> int:
        burst = packet.tso_id if packet.tso_id is not None else -1
        return self._mix(hash((packet.flow, burst)), self.salt) % nports


class PerPacketRouting(RoutingPolicy):
    """Spray every packet independently (round-robin or uniform random)."""

    def __init__(self, rng: Optional[random.Random] = None):
        #: With an rng, choices are uniform random; without, round-robin.
        self._getrandbits = rng.getrandbits if rng is not None else None
        self._counter = 0

    def choose(self, packet: Packet, nports: int) -> int:
        if nports < 1:
            raise ValueError(f"need at least one port, got {nports}")
        getrandbits = self._getrandbits
        if getrandbits is not None:
            # The body of ``Random.randrange(nports)`` (CPython 3.10-3.13,
            # int nports >= 1): the same draws, the same stream state.
            k = nports.bit_length()
            r = getrandbits(k)
            while r >= nports:
                r = getrandbits(k)
            return r
        self._counter = (self._counter + 1) % nports
        return self._counter


class FlowletRouting(RoutingPolicy):
    """CONGA-style flowlet switching (§2.2's related-work middle ground).

    A flow's packets keep their current path while they arrive back to
    back; a gap longer than ``flowlet_gap_ns`` ends the flowlet, and the
    next burst may take a new path.  If the gap exceeds the path-delay
    skew, no reordering reaches the end host — the property CONGA relies on
    so that it "eliminate[s] almost all packet reordering seen at the
    end-host" without a resilient stack.

    Needs a clock: pass the simulation ``engine`` so gap detection reads
    ``sim.time`` directly, or rely on the switch calling :meth:`observe`
    with arrival times (our :class:`~repro.fabric.switch.Switch` does this
    automatically when the policy exposes ``wants_time``).  Both paths see
    the same engine clock; the explicit ``engine`` makes the policy safe
    to use outside a switch too.

    Emits the same ``flowcut_pin`` / ``flowcut_move`` trace events as
    :class:`~repro.fabric.flowcut.FlowcutRouting` (with
    ``policy="flowlet"``), so the two arms of the fabric comparison read
    identically in traces (see docs/fabric.md).
    """

    wants_time = True

    def __init__(self, rng: random.Random, flowlet_gap_ns: int = 100_000,
                 *, engine=None):
        if flowlet_gap_ns < 0:
            raise ValueError(f"flowlet gap must be >= 0, got {flowlet_gap_ns}")
        self._rng = rng
        self.flowlet_gap_ns = flowlet_gap_ns
        #: Optional engine; when set, :meth:`choose` reads its clock
        #: directly instead of depending on an ``observe`` call.
        self._engine = engine
        #: flow -> (current port, last packet time)
        self._state: dict = {}
        self._now = 0
        self.flowlets_started = 0
        #: Flowlet boundaries that actually changed uplink.
        self.flowlets_moved = 0
        self.tracer = trace_runtime.current()

    def observe(self, now: int) -> None:
        """Supply the current time for gap detection."""
        self._now = now

    def choose(self, packet: Packet, nports: int) -> int:
        now = self._engine.now if self._engine is not None else self._now
        entry = self._state.get(packet.flow)
        if entry is not None:
            port, last = entry
            if now - last <= self.flowlet_gap_ns:
                self._state[packet.flow] = (port, now)
                return port
        port = self._rng.randrange(nports)
        self._state[packet.flow] = (port, now)
        self.flowlets_started += 1
        if entry is not None and port != entry[0]:
            self.flowlets_moved += 1
            if self.tracer is not None:
                self.tracer.flowcut_move(now, packet.flow, "flowlet",
                                         entry[0], port)
        elif entry is None and self.tracer is not None:
            self.tracer.flowcut_pin(now, packet.flow, "flowlet", port)
        return port
