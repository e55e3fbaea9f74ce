"""Wire-layer fault injectors: pass-through sinks that misbehave.

Each injector wraps a downstream :class:`PacketSink` and perturbs the
packet stream while :attr:`~FaultInjector.active` is set — losing,
duplicating, corrupting, delaying, or black-holing packets.  Inactive
injectors forward untouched, draw nothing from their rng stream, and
touch no counters, so a closed fault window is invisible to the traffic,
to the random sequence, and to the allocator: one call per stage per
packet and nothing else (the contract
``tests/integration/test_layer_budgets.py`` enforces).

Determinism: every random decision comes from the injector's own
``random.Random`` (a named ``sim.rng`` stream when driven by the
:class:`~repro.faults.controller.FaultEngine`), and decisions are made in
packet-arrival order — which the event engine pins.  Dropped packets are
recycled through :func:`repro.net.pool.release_terminal`, keeping the
packet-pool balance exact under chaos.

:class:`LossInjector` doubles as the repo's only uniform-loss element: it
is what Figure 14's "drop 0.1% of the packets uniformly at random" testbed
wires in front of the receiver (formerly ``fabric.drop.DropElement``, now
unified here).  Its draw pattern — one draw per packet, only when ``p > 0``
— is deliberately identical, keeping fig14's golden output byte-stable.
"""

from __future__ import annotations

import random
from typing import Optional, Protocol

from repro.net.packet import Packet
from repro.net.pool import pooled_or_new, release_terminal
from repro.sim.engine import Engine


class PacketSink(Protocol):
    """Anything that accepts packets at their arrival instant.

    (Structurally identical to ``repro.fabric.link.PacketSink``; declared
    locally so the fault layer has no import edge into the fabric package.)
    """

    def receive(self, packet: Packet) -> None:  # pragma: no cover - protocol
        ...


class FaultInjector:
    """Base pass-through: counters, the active flag, activation hooks."""

    #: Catalog kind this class implements (see plan.KINDS).
    kind = "base"

    def __init__(self, sink: PacketSink, rng: random.Random,
                 name: str = ""):
        self.sink = sink
        self._rng = rng
        self.name = name or self.kind
        #: Perturb only while set; toggled by the FaultEngine timeline.
        self.active = True
        #: Packets forwarded unharmed.
        self.passed = 0
        #: Packets destroyed by this injector.
        self.dropped = 0
        #: Extra copies emitted.
        self.duplicated = 0
        #: Packets whose payload was damaged.
        self.corrupted = 0
        #: Packets forwarded late.
        self.delayed = 0

    def on_activate(self, now: int) -> None:
        """Window opened (state-machine injectors reset here)."""

    def on_clear(self, now: int) -> None:
        """Window closed."""

    def receive(self, packet: Packet) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class LossInjector(FaultInjector):
    """Lose each packet independently with probability ``p``."""

    kind = "loss"

    def __init__(self, sink: PacketSink, rng: random.Random, p: float,
                 name: str = ""):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"drop probability must be in [0, 1], got {p}")
        super().__init__(sink, rng, name)
        self.p = p

    def receive(self, packet: Packet) -> None:
        """Drop or forward one packet."""
        if not self.active:  # closed window: no draw, no bookkeeping
            self.sink.receive(packet)
            return
        if self.p > 0.0 and self._rng.random() < self.p:
            self.dropped += 1
            release_terminal(packet)
            return
        self.passed += 1
        self.sink.receive(packet)


class BurstLossInjector(FaultInjector):
    """Gilbert–Elliott bursty loss: a good/bad two-state channel.

    Each packet first advances the channel state (good->bad with
    ``p_enter``, bad->good with ``p_exit``), then is lost with the state's
    loss rate.  Mean burst length is ``1 / p_exit`` packets.
    """

    kind = "burst_loss"

    def __init__(self, sink: PacketSink, rng: random.Random, *,
                 p_enter: float, p_exit: float, p_loss_bad: float,
                 p_loss_good: float = 0.0, name: str = ""):
        for label, p in (("p_enter", p_enter), ("p_exit", p_exit),
                         ("p_loss_bad", p_loss_bad),
                         ("p_loss_good", p_loss_good)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {p}")
        super().__init__(sink, rng, name)
        self.p_enter = p_enter
        self.p_exit = p_exit
        self.p_loss_bad = p_loss_bad
        self.p_loss_good = p_loss_good
        self.in_bad_state = False

    def on_activate(self, now: int) -> None:
        self.in_bad_state = False

    def receive(self, packet: Packet) -> None:
        """Advance the channel, then drop or forward."""
        if not self.active:
            self.sink.receive(packet)
            return
        rng = self._rng
        if self.in_bad_state:
            if rng.random() < self.p_exit:
                self.in_bad_state = False
        elif rng.random() < self.p_enter:
            self.in_bad_state = True
        p_loss = self.p_loss_bad if self.in_bad_state else self.p_loss_good
        if p_loss > 0.0 and rng.random() < p_loss:
            self.dropped += 1
            release_terminal(packet)
            return
        self.passed += 1
        self.sink.receive(packet)


class DuplicateInjector(FaultInjector):
    """Forward every packet; with probability ``p`` forward a copy too.

    The copy is a distinct wire packet (fresh ``pid``) carrying identical
    header state, allocated from the original's pool when it has one — the
    same mechanics as a fabric retransmitting a frame it already delivered.
    """

    kind = "duplicate"

    def __init__(self, sink: PacketSink, rng: random.Random, p: float,
                 name: str = ""):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"duplicate probability must be in [0, 1], got {p}")
        super().__init__(sink, rng, name)
        self.p = p

    def receive(self, packet: Packet) -> None:
        """Forward, occasionally twice."""
        if not self.active:
            self.sink.receive(packet)
            return
        self.passed += 1
        dup = None
        if self.p > 0.0 and self._rng.random() < self.p:
            dup = pooled_or_new(
                packet.origin, packet.flow, packet.seq, packet.payload_len,
                flags=packet.flags, ack=packet.ack, options=packet.options,
                ce=packet.ce, priority=packet.priority, tso_id=packet.tso_id,
                sent_at=packet.sent_at,
                is_retransmission=packet.is_retransmission,
                rwnd=packet.rwnd, sack=packet.sack)
            dup.path_id = packet.path_id
            self.duplicated += 1
        self.sink.receive(packet)
        if dup is not None:
            self.sink.receive(dup)


class CorruptInjector(FaultInjector):
    """Damage each packet's payload with probability ``p``.

    The frame still travels (it occupies queues and wire time) but fails
    the NIC's checksum verification and is destroyed at the rx ring —
    which is where real corruption becomes loss that the sender discovers
    only via duplicate ACKs or RTO.
    """

    kind = "corrupt"

    def __init__(self, sink: PacketSink, rng: random.Random, p: float,
                 name: str = ""):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"corrupt probability must be in [0, 1], got {p}")
        super().__init__(sink, rng, name)
        self.p = p

    def receive(self, packet: Packet) -> None:
        """Mark and forward."""
        if not self.active:
            self.sink.receive(packet)
            return
        if (self.p > 0.0 and packet.payload_len > 0
                and self._rng.random() < self.p):
            packet.corrupt = True
            self.corrupted += 1
        self.passed += 1
        self.sink.receive(packet)


class JitterInjector(FaultInjector):
    """Hold a random subset of packets back for extra wire time.

    With probability ``p`` a packet is delivered ``U(0, extra_ns_max)``
    late instead of now — later packets overtake it, which is exactly the
    reordering amplification multi-path fabrics produce under churn.
    """

    kind = "jitter"

    def __init__(self, sink: PacketSink, rng: random.Random, engine: Engine,
                 *, p: float, extra_ns_max: int, name: str = ""):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"jitter probability must be in [0, 1], got {p}")
        if extra_ns_max <= 0:
            raise ValueError(f"extra_ns_max must be > 0, got {extra_ns_max}")
        super().__init__(sink, rng, name)
        self._engine = engine
        self.p = p
        self.extra_ns_max = extra_ns_max

    def receive(self, packet: Packet) -> None:
        """Forward now, or a little later."""
        if not self.active:
            self.sink.receive(packet)
            return
        if self.p > 0.0 and self._rng.random() < self.p:
            self.delayed += 1
            extra = 1 + self._rng.randrange(self.extra_ns_max)
            self._engine.post(extra, self.sink.receive, packet)
            return
        self.passed += 1
        self.sink.receive(packet)


class BlackholeInjector(FaultInjector):
    """Drop everything while active — a link flap / routing blackhole."""

    kind = "blackhole"

    def receive(self, packet: Packet) -> None:
        """Swallow or forward."""
        if not self.active:
            self.sink.receive(packet)
            return
        self.dropped += 1
        release_terminal(packet)


def build_injector(spec, sink: PacketSink, rng: random.Random,
                   engine: Optional[Engine] = None) -> FaultInjector:
    """Construct the injector a wire :class:`FaultSpec` describes."""
    kind = spec.kind
    if kind == "loss":
        return LossInjector(sink, rng, spec.param("p"), name=spec.name)
    if kind == "burst_loss":
        return BurstLossInjector(
            sink, rng, p_enter=spec.param("p_enter"),
            p_exit=spec.param("p_exit"),
            p_loss_bad=spec.param("p_loss_bad"),
            p_loss_good=spec.param("p_loss_good"), name=spec.name)
    if kind == "duplicate":
        return DuplicateInjector(sink, rng, spec.param("p"), name=spec.name)
    if kind == "corrupt":
        return CorruptInjector(sink, rng, spec.param("p"), name=spec.name)
    if kind == "jitter":
        if engine is None:
            raise ValueError("jitter faults need the simulation engine")
        return JitterInjector(
            sink, rng, engine, p=spec.param("p"),
            extra_ns_max=int(spec.param("extra_us_max")) * 1_000,
            name=spec.name)
    if kind == "blackhole":
        return BlackholeInjector(sink, rng, name=spec.name)
    raise ValueError(f"not a wire fault kind: {kind!r}")
