"""Wire injectors: determinism, perturbation semantics, zero-draw dormancy."""

import random

import pytest

from repro.faults.injectors import (
    BlackholeInjector,
    BurstLossInjector,
    CorruptInjector,
    DuplicateInjector,
    JitterInjector,
    LossInjector,
    build_injector,
)
from repro.faults.plan import FaultPlan
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet
from repro.net.pool import PacketPool
from repro.sim.engine import Engine

FLOW = FiveTuple(1, 2, 1000, 80)


class Collect:
    """A sink recording arrivals."""

    def __init__(self):
        self.packets = []

    def receive(self, packet):
        self.packets.append(packet)


def stream(n):
    return [Packet(FLOW, i * MSS, MSS) for i in range(n)]


def test_loss_rate_and_determinism():
    outcomes = []
    for _ in range(2):
        sink = Collect()
        injector = LossInjector(sink, random.Random(42), 0.3)
        for packet in stream(500):
            injector.receive(packet)
        outcomes.append([p.seq for p in sink.packets])
        assert injector.dropped + injector.passed == 500
        assert 0.2 < injector.dropped / 500 < 0.4
    assert outcomes[0] == outcomes[1]  # same seed, same casualties


def test_loss_zero_p_draws_nothing():
    sink = Collect()
    rng = random.Random(7)
    state = rng.getstate()
    injector = LossInjector(sink, rng, 0.0)
    for packet in stream(50):
        injector.receive(packet)
    assert len(sink.packets) == 50
    assert rng.getstate() == state  # p == 0 must not consume the stream


def test_inactive_injector_is_invisible():
    """A closed window forwards everything and leaves the rng untouched."""
    for cls, args in [(LossInjector, (1.0,)), (DuplicateInjector, (1.0,)),
                      (CorruptInjector, (1.0,))]:
        sink = Collect()
        rng = random.Random(3)
        state = rng.getstate()
        injector = cls(sink, rng, *args)
        injector.active = False
        for packet in stream(20):
            injector.receive(packet)
        assert len(sink.packets) == 20
        assert rng.getstate() == state
        assert injector.dropped == injector.duplicated == 0


def test_loss_validates_probability():
    with pytest.raises(ValueError):
        LossInjector(Collect(), random.Random(0), 1.5)
    with pytest.raises(ValueError):
        LossInjector(Collect(), random.Random(0), -0.1)


def test_burst_loss_is_bursty():
    """Same long-run rate, longer loss runs than i.i.d. loss."""
    sink = Collect()
    injector = BurstLossInjector(Collect(), random.Random(5),
                                 p_enter=0.02, p_exit=0.2, p_loss_bad=0.9)
    drops = []
    for packet in stream(4000):
        before = injector.dropped
        injector.receive(packet)
        drops.append(injector.dropped > before)
    # Count maximal loss runs; bursty loss concentrates drops in few runs.
    runs, total = 0, 0
    in_run = False
    for lost in drops:
        total += lost
        if lost and not in_run:
            runs += 1
        in_run = lost
    assert total > 50
    assert total / runs > 2.0  # mean burst length well above i.i.d.'s ~1
    del sink


def test_burst_loss_resets_on_activate():
    injector = BurstLossInjector(Collect(), random.Random(5),
                                 p_enter=1.0, p_exit=0.0, p_loss_bad=1.0)
    injector.receive(Packet(FLOW, 0, MSS))
    assert injector.in_bad_state
    injector.on_activate(0)
    assert not injector.in_bad_state


def test_burst_loss_all_good_passes_everything():
    sink = Collect()
    injector = BurstLossInjector(sink, random.Random(1),
                                 p_enter=0.0, p_exit=1.0, p_loss_bad=1.0)
    for packet in stream(100):
        injector.receive(packet)
    assert len(sink.packets) == 100
    assert injector.dropped == 0


def test_duplicate_emits_fresh_copy_after_original():
    sink = Collect()
    injector = DuplicateInjector(sink, random.Random(0), 1.0)
    original = Packet(FLOW, MSS, MSS, tso_id=9)
    original.path_id = 4
    injector.receive(original)
    assert injector.duplicated == 1
    assert len(sink.packets) == 2
    first, copy = sink.packets
    assert first is original
    assert copy is not original
    assert copy.pid != original.pid  # a distinct wire frame
    assert (copy.flow, copy.seq, copy.payload_len) == (FLOW, MSS, MSS)
    assert copy.tso_id == 9
    assert copy.path_id == 4


def test_duplicate_copy_comes_from_the_pool():
    pool = PacketPool()
    sink = Collect()
    injector = DuplicateInjector(sink, random.Random(0), 1.0)
    injector.receive(pool.acquire(FLOW, 0, MSS))
    assert pool.in_flight == 2  # original + its pooled copy


def test_corrupt_marks_but_still_forwards():
    sink = Collect()
    injector = CorruptInjector(sink, random.Random(0), 1.0)
    injector.receive(Packet(FLOW, 0, MSS))
    assert injector.corrupted == 1
    assert len(sink.packets) == 1
    assert sink.packets[0].corrupt


def test_corrupt_spares_pure_acks():
    """Zero-payload frames carry no payload bits to flip."""
    sink = Collect()
    rng = random.Random(0)
    state = rng.getstate()
    injector = CorruptInjector(sink, rng, 1.0)
    injector.receive(Packet(FLOW, 0, 0))
    assert injector.corrupted == 0
    assert not sink.packets[0].corrupt
    assert rng.getstate() == state


def test_jitter_reorders():
    """A jittered packet is overtaken by the one behind it."""
    engine = Engine()
    sink = Collect()
    # p=1: every packet delayed; feed one, then deliver a direct packet.
    injector = JitterInjector(sink, random.Random(8), engine,
                              p=1.0, extra_ns_max=1000)
    slow, fast = Packet(FLOW, 0, MSS), Packet(FLOW, MSS, MSS)
    injector.receive(slow)
    injector.active = False
    injector.receive(fast)  # forwarded immediately
    assert sink.packets == [fast]
    engine.run_until(10_000)
    assert sink.packets == [fast, slow]
    assert injector.delayed == 1


def test_jitter_determinism():
    arrivals = []
    for _ in range(2):
        engine = Engine()
        sink = Collect()
        injector = JitterInjector(sink, random.Random(4), engine,
                                  p=0.5, extra_ns_max=500)
        for i, packet in enumerate(stream(50)):
            engine.post_at(i * 100, injector.receive, packet)
        engine.run_until(1_000_000)
        arrivals.append([p.seq for p in sink.packets])
    assert arrivals[0] == arrivals[1]


def test_blackhole_swallows_everything_while_active():
    sink = Collect()
    injector = BlackholeInjector(sink, random.Random(0))
    for packet in stream(10):
        injector.receive(packet)
    assert injector.dropped == 10
    assert sink.packets == []
    injector.active = False
    injector.receive(Packet(FLOW, 0, MSS))
    assert len(sink.packets) == 1


def _spec(kind, **params):
    return FaultPlan.from_dict({"faults": [
        {"name": "f", "kind": kind, "at_us": 0, "duration_us": 1,
         "params": params}]}).faults[0]


def test_build_injector_covers_every_wire_kind():
    engine = Engine()
    cases = {
        "loss": LossInjector,
        "burst_loss": BurstLossInjector,
        "duplicate": DuplicateInjector,
        "corrupt": CorruptInjector,
        "jitter": JitterInjector,
        "blackhole": BlackholeInjector,
    }
    for kind, cls in cases.items():
        injector = build_injector(_spec(kind), Collect(), random.Random(0),
                                  engine=engine)
        assert isinstance(injector, cls)
        assert injector.name == "f"


def test_build_injector_jitter_needs_engine():
    with pytest.raises(ValueError, match="engine"):
        build_injector(_spec("jitter"), Collect(), random.Random(0))


def test_build_injector_rejects_environment_kinds():
    with pytest.raises(ValueError, match="not a wire fault"):
        build_injector(_spec("pause_poll"), Collect(), random.Random(0))
