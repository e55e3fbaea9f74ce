"""Property tests: lifecycle legality under loss, duplication, corruption.

Satellite of the fault-injection PR: whatever the fault pattern, the
Juggler lifecycle must keep to the paper's contracts —

* every phase transition is Table 1 / Figure 5 legal (JSAN checks each
  step's transitions against the spec; the tests also assert it post-hoc);
* loss recovery is entered only from active merging via an ``ofo_timeout``
  and exited only back to active merging when the hole is filled;
* a flow in loss recovery is never evicted while an avoidable victim (an
  inactive or plain-active flow) exists (§4.3).

Every engine is built under JSAN, whose shadow holds it to the spec after
every step, so any violation fails the test at its source rather than as
a downstream symptom; the transcript below is the tracer's phase and
eviction events.
"""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis.runtime import sanitizing
from repro.analysis.spec import TRANSITIONS
from repro.core.config import JugglerConfig
from repro.core.juggler import JugglerGRO
from repro.core.phases import Phase
from repro.faults.injectors import CorruptInjector, DuplicateInjector
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet
from repro.sim.time import US
from repro.trace.events import Eviction, PhaseTransition
from repro.trace.sinks import CallbackSink
from repro.trace.tracer import Tracer

FLOW = FiveTuple(1, 2, 1000, 80)


class Transcript:
    """The tracer's transitions and evictions, with the JSAN that ran."""

    def __init__(self, sanitizer):
        self.sanitizer = sanitizer
        self.transitions = []
        self.evictions = []

    def record(self, event):
        if isinstance(event, PhaseTransition):
            self.transitions.append(
                (event.flow, event.old_phase, event.new_phase))
        elif isinstance(event, Eviction):
            self.evictions.append((event.flow, event.phase))

    @property
    def checks_run(self):
        return self.sanitizer.checks_run


def make_engine(**config):
    defaults = dict(inseq_timeout=50 * US, ofo_timeout=200 * US,
                    table_capacity=8)
    defaults.update(config)
    with sanitizing() as sanitizer:
        gro = JugglerGRO(lambda segment: None, JugglerConfig(**defaults))
    transcript = Transcript(sanitizer)
    gro.attach_tracer(Tracer([CallbackSink(transcript.record)]))
    return gro, transcript


def assert_legal(transcript):
    for _, old, new in transcript.transitions:
        assert (old, new) in TRANSITIONS, (old, new)


@st.composite
def fault_patterns(draw, max_packets=20):
    """A packet stream with some packets lost/corrupted and some doubled."""
    n = draw(st.integers(min_value=4, max_value=max_packets))
    indices = st.integers(min_value=0, max_value=n - 1)
    dropped = draw(st.sets(indices, max_size=n - 2))
    doubled = draw(st.sets(indices, max_size=4))
    return n, sorted(dropped), sorted(doubled - set(dropped))


@given(fault_patterns())
@settings(max_examples=80, deadline=None)
def test_recovery_entered_on_timeout_and_exited_on_fill(case):
    n, dropped, doubled = case
    gro, transcript = make_engine()
    now = 0
    for i in range(n):
        if i in dropped:
            continue
        now += 1 * US
        gro.receive(Packet(FLOW, i * MSS, MSS), now)
        if i in doubled:
            gro.receive(Packet(FLOW, i * MSS, MSS), now)

    # First sweep flushes the in-sequence head run (arming the hole, if
    # any); the second ages the armed hole past ofo_timeout.
    now += 300 * US
    gro.check_timeouts(now)
    now += 300 * US
    gro.check_timeouts(now)
    entry = gro.table.lookup(FLOW)
    received = sorted(set(range(n)) - set(dropped))
    # A hole needs received bytes on both sides: build-up pins seq_next at
    # the lowest packet seen, so leading losses are invisible.
    has_hole = any(received[0] < d < received[-1] for d in dropped)
    if has_hole:
        assert entry is not None
        assert entry.phase is Phase.LOSS_RECOVERY

    # Retransmit the casualties: the first fill exits loss recovery.
    for i in dropped:
        now += 1 * US
        gro.receive(Packet(FLOW, i * MSS, MSS), now)
    entry = gro.table.lookup(FLOW)
    if entry is not None:
        assert entry.phase is not Phase.LOSS_RECOVERY

    gro.flush_all(now)
    assert_legal(transcript)
    # Loss recovery is entered only from active merging, and left only for
    # active merging (Table 1).
    for _, old, new in transcript.transitions:
        if new is Phase.LOSS_RECOVERY:
            assert old is Phase.ACTIVE_MERGE
        if old is Phase.LOSS_RECOVERY:
            assert new is Phase.ACTIVE_MERGE
    assert transcript.checks_run > 0


@given(fault_patterns(), st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=60, deadline=None)
def test_lifecycle_legal_under_duplication_and_corruption(case, seed):
    """Drive the stream through real injectors with a NIC-checksum stage."""
    n, corrupted, doubled = case
    gro, transcript = make_engine()
    now = 0

    class Checksum:
        """The NIC boundary: corrupt frames die before reaching GRO."""

        def receive(self, packet):
            if packet.corrupt:
                return
            gro.receive(packet, now)

    rng = random.Random(seed)
    chain = DuplicateInjector(CorruptInjector(Checksum(), rng, 0.0), rng, 0.0)
    for i in range(n):
        now += 1 * US
        # Force the faults deterministically per index instead of by
        # probability, so hypothesis controls the pattern exactly.
        chain.p = 1.0 if i in doubled else 0.0
        chain.sink.p = 1.0 if i in corrupted else 0.0
        chain.receive(Packet(FLOW, i * MSS, MSS))

    now += 300 * US
    gro.check_timeouts(now)  # in-sequence flush: the first hole arms
    now += 300 * US
    gro.check_timeouts(now)  # the armed hole ages out
    for i in corrupted:  # retransmissions (uncorrupted this time)
        now += 1 * US
        chain.p = chain.sink.p = 0.0
        chain.receive(Packet(FLOW, i * MSS, MSS))
    entry = gro.table.lookup(FLOW)
    if entry is not None:
        assert entry.phase is not Phase.LOSS_RECOVERY
    gro.flush_all(now)
    assert_legal(transcript)
    assert transcript.checks_run > 0


def force_into_recovery(gro, flow, now):
    """Open a hole, let it time out: the flow lands in loss recovery."""
    gro.receive(Packet(flow, 0, MSS), now)
    gro.receive(Packet(flow, 2 * MSS, MSS), now + 1)  # hole at 1*MSS
    t1 = now + gro.config.ofo_timeout + 2
    gro.check_timeouts(t1)  # flushes [0, MSS): the hole at MSS arms
    gro.check_timeouts(t1 + gro.config.ofo_timeout + 1)  # hole ages out
    entry = gro.table.lookup(flow)
    assert entry is not None and entry.phase is Phase.LOSS_RECOVERY
    return entry


@given(st.integers(min_value=1, max_value=6))
@settings(max_examples=20, deadline=None)
def test_recovery_flows_evicted_only_when_unavoidable(extra_flows):
    gro, transcript = make_engine(table_capacity=2)
    recovery_flow = FiveTuple(1, 2, 5000, 80)
    now = 0
    force_into_recovery(gro, recovery_flow, now)
    now += 1000 * US

    # Each new flow may force an eviction; while the other slot holds an
    # inactive/active victim the recovery flow must survive (§4.3).
    for i in range(extra_flows):
        now += 10 * US
        gro.receive(Packet(FiveTuple(1, 2, 6000 + i, 80), 0, MSS), now)
        assert gro.table.lookup(recovery_flow) is not None
    for key, phase in transcript.evictions:
        assert phase is not Phase.LOSS_RECOVERY, key
    assert_legal(transcript)


def test_recovery_flow_is_evicted_when_nothing_else_remains():
    """With only loss-recovery flows resident, eviction may take one —
    legally (the spec allows it) and as the last resort."""
    gro, transcript = make_engine(table_capacity=2)
    now = 0
    for port in (5000, 5001):
        force_into_recovery(gro, FiveTuple(1, 2, port, 80), now)
        now += 1000 * US
    now += 1000 * US
    gro.receive(Packet(FiveTuple(1, 2, 7000, 80), 0, MSS), now)
    assert len(transcript.evictions) == 1
    assert transcript.evictions[0][1] is Phase.LOSS_RECOVERY
    assert_legal(transcript)
