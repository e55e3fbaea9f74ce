"""JSAN adversarial tests: every contract the shadow guards, forced to break.

Each test plants a bug the way one would land — an engine subclass that
takes a wrong turn, a config swapped under a running engine, or engine
state corrupted between two steps — and asserts the shadow raises a
readable diagnostic at the first step that shows it.  Plus the activation
paths (env var, install/uninstall, context manager) and clean runs that
must stay silent.
"""

import dataclasses

import pytest

from repro.analysis import runtime
from repro.analysis.sanitizer import SanitizerError
from repro.core.config import JugglerConfig
from repro.core.flush import FlushReason
from repro.core.juggler import JugglerGRO
from repro.core.phases import Phase
from repro.harness.experiment import GroKind, make_gro_factory
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.flags import TcpFlags
from repro.net.packet import Packet
from repro.net.segment import Segment
from repro.sim.time import US

FLOW = FiveTuple(1, 2, 1000, 80)
PSH = TcpFlags.ACK | TcpFlags.PSH


@pytest.fixture(autouse=True)
def _restore_runtime():
    """Leave the process-wide sanitizer exactly as the suite found it."""
    yield
    runtime.reset()


def armed(engine=JugglerGRO, **config):
    """An engine built under a fresh JSAN, recording its flush reasons."""
    with runtime.sanitizing() as sanitizer:
        gro = engine(lambda segment: None, JugglerConfig(**config))
    gro.reasons = []
    deliver = gro._deliver_segment

    def recording(segment, reason, now):
        gro.reasons.append(reason)
        deliver(segment, reason, now)

    gro._deliver_segment = recording
    return gro, sanitizer


def data(k, flow=FLOW, **kw):
    return Packet(flow, k * MSS, MSS, **kw)


def established(gro, flow=FLOW, now=0):
    """``flow`` flushed [0, 1 MSS) on a PSH: post-merge, seq_next 1 MSS."""
    gro.receive(data(0, flow, flags=PSH), now)
    entry = gro.table.lookup(flow)
    assert entry.phase is Phase.POST_MERGE and entry.seq_next == MSS
    return entry


def in_loss_recovery(gro, flow=FLOW, now=0):
    """``flow`` with [0, 1) flushed, a hole at 1 timed out: lost_seq 1 MSS."""
    established(gro, flow, now)
    gro.receive(data(2, flow), now + 1)
    gro.check_timeouts(now + 1 + gro.config.ofo_timeout)
    entry = gro.table.lookup(flow)
    assert entry.phase is Phase.LOSS_RECOVERY and entry.lost_seq == MSS
    return entry


def raises(match):
    return pytest.raises(SanitizerError, match="(?s)" + match)


# --- Table 1: phase transitions ----------------------------------------------


class RestartsBuildUp(JugglerGRO):
    """Bug: old data on a drained flow sends it back to build-up."""

    def _receive_old_data(self, entry, packet, now):
        if entry.phase is Phase.POST_MERGE:
            self.table.move(entry, Phase.BUILD_UP, now)
        super()._receive_old_data(entry, packet, now)


def test_post_merge_to_build_up_raises():
    gro, _ = armed(RestartsBuildUp)
    established(gro)
    with pytest.raises(SanitizerError) as exc:
        gro.receive(data(0), 1)
    message = str(exc.value)
    assert message.startswith("JSAN: illegal phase transition "
                              "post_merge -> build_up")
    assert "after receive_batch at t=1" in message
    assert repr(FLOW) in message


class TimesOutEveryHead(JugglerGRO):
    """Bug: an expired in-sequence head is flushed as if it were lost."""

    def _inseq_timeout_fire(self, entry, now):
        self._ofo_timeout_fire(entry, now)


def test_build_up_to_loss_recovery_raises():
    gro, _ = armed(TimesOutEveryHead)
    gro.receive(data(0), 0)
    with raises("illegal phase transition build_up -> loss_recovery"):
        gro.check_timeouts(gro.config.inseq_timeout)


def test_self_transition_is_a_legal_requeue():
    """Build-up to active merging stays on the active list but re-enqueues
    the flow at its tail; the spec's list order agrees."""
    other = FiveTuple(1, 2, 2000, 80)
    gro, _ = armed()
    gro.receive_batch([data(0), data(0, other), data(3)], 0)
    assert list(gro.table._lists["active"]) == [FLOW, other]
    gro.receive(data(1, flags=PSH), 1)  # flushes [0, 2): build-up ends
    assert gro.table.lookup(FLOW).phase is Phase.ACTIVE_MERGE
    assert list(gro.table._lists["active"]) == [other, FLOW]


def test_legal_lifecycle_walk_is_silent():
    gro, sanitizer = armed()
    seen = []
    move = gro.table.move
    gro.table.move = lambda e, phase, now=0: (
        seen.append((e.phase, phase)), move(e, phase, now))
    entry = in_loss_recovery(gro)          # build-up .. loss recovery
    gro.receive(data(1), 200 * US)         # the hole is filled
    gro.check_timeouts(300 * US)
    assert entry.phase is Phase.POST_MERGE
    assert seen == [(Phase.BUILD_UP, Phase.ACTIVE_MERGE),
                    (Phase.ACTIVE_MERGE, Phase.POST_MERGE),
                    (Phase.POST_MERGE, Phase.ACTIVE_MERGE),
                    (Phase.ACTIVE_MERGE, Phase.LOSS_RECOVERY),
                    (Phase.LOSS_RECOVERY, Phase.ACTIVE_MERGE),
                    (Phase.ACTIVE_MERGE, Phase.POST_MERGE)]
    assert sanitizer.checks_run == 5


class AdmitsLost(JugglerGRO):
    """Bug: a new flow is stored in loss recovery."""

    def _admit_new_flow(self, packet, now):
        entry = super()._admit_new_flow(packet, now)
        self.table.remove(entry)
        entry.phase = Phase.LOSS_RECOVERY
        entry.seq_next = entry.lost_seq = packet.seq
        self.table.add(entry)
        return entry


def test_admission_in_loss_recovery_raises():
    gro, _ = armed(AdmitsLost)
    with raises("illegal phase transition initial -> loss_recovery"):
        gro.receive(data(0), 0)


# --- Figure 4: list residency -------------------------------------------------


def test_entry_on_two_lists_raises():
    gro, _ = armed()
    entry = established(gro)
    gro.table._lists["active"][FLOW] = entry  # corrupt: on two lists
    with pytest.raises(SanitizerError) as exc:
        gro.poll_complete(1)
    assert "the active list differs from the spec" in str(exc.value)


def test_tracked_but_listless_entry_raises():
    gro, _ = armed()
    established(gro)
    del gro.table._lists["inactive"][FLOW]  # corrupt: index, no list
    with raises("the inactive list differs from the spec"):
        gro.poll_complete(1)


def test_phase_list_disagreement_raises():
    gro, _ = armed()
    entry = established(gro)
    entry.phase = Phase.ACTIVE_MERGE  # corrupt: phase changed without move
    with raises("phase transitions"):
        gro.receive(data(1), 1)


def test_healthy_table_audit_is_silent():
    gro, sanitizer = armed(table_capacity=4)
    for port in range(6):  # two evictions
        established(gro, FiveTuple(1, 2, 3000 + port, 80), port)
        gro.poll_complete(port)
    assert gro.stats.total_evictions == 2
    assert sanitizer.checks_run == 12


# --- flow / ofo invariants ----------------------------------------------------


def test_lost_seq_outside_loss_recovery_raises():
    gro, _ = armed()
    established(gro).lost_seq = 123  # corrupt: loss marker while drained
    with raises(r"lost_seq.*\n  engine: \(<Phase.ACTIVE_MERGE.*, 123,"):
        gro.receive(data(2), 1)


def test_post_merge_with_buffered_data_raises():
    gro, _ = armed()
    entry = established(gro)
    entry.ofo.insert(data(3))  # corrupt: buffered behind the engine's back
    entry.hole_since = 0
    with raises("runs\\) differs from the spec"):
        gro.receive(data(1), 1)


def test_phantom_hole_raises():
    gro, _ = armed()
    entry = established(gro)
    gro.receive(data(1), 1)  # in sequence, held
    entry.hole_since = 1  # corrupt: armed timeout with no hole
    with raises("deliveries.*ofo_timeout"):
        gro.poll_complete(1 + 50 * US)


def test_unarmed_hole_raises():
    gro, _ = armed()
    entry = established(gro)
    gro.receive(data(2), 1)  # a hole at 1 MSS, its clock armed
    entry.hole_since = None  # corrupt: its ofo_timeout would never fire
    with raises("next_deadline"):
        gro.poll_complete(2)


def test_overlapping_ofo_runs_raise():
    gro, _ = armed()
    entry = established(gro)
    gro.receive(data(2), 1)
    entry.ofo.nodes.append(Segment([Packet(FLOW, 2 * MSS + 100, MSS)]))
    with raises("differs from the spec"):
        gro.receive(data(5), 2)


# --- Table 2: flush validity --------------------------------------------------


def test_event_flush_with_inseq_head_is_silent():
    gro, _ = armed()
    established(gro)
    gro.receive(data(1), 1)
    gro.receive(data(2, flags=PSH), 2)
    assert gro.reasons == [FlushReason.FLAGS, FlushReason.FLAGS]


class FlushesAsPollEnd(JugglerGRO):
    """Bug: the event checks tag their flushes like standard GRO."""

    def _flush_head(self, entry, reason, now):
        super()._flush_head(entry, FlushReason.POLL_END, now)


def test_event_flush_with_standard_gro_reason_raises():
    gro, _ = armed(FlushesAsPollEnd)
    with raises("deliveries.*poll_end"):
        gro.receive(data(0, flags=PSH), 0)


class FlushesDetachedHeads(JugglerGRO):
    """Bug: an event check flushes a head that is not in sequence."""

    def receive_batch(self, packets, now):
        super().receive_batch(packets, now)
        for entry in list(self.table):
            if entry.ofo:
                self._flush_head(entry, FlushReason.SEGMENT_FULL, now)


def test_event_flush_of_out_of_sequence_head_raises():
    gro, _ = armed(FlushesDetachedHeads)
    established(gro)
    with raises("deliveries.*segment_full"):
        gro.receive(data(3), 1)  # head beyond seq_next


def swapped(gro, **config):
    """Bug: the engine runs on other values than it was built with."""
    gro.config = dataclasses.replace(gro.config, **config)
    return gro


def test_premature_inseq_timeout_raises():
    gro, _ = armed(enable_buildup=False)
    gro.receive(data(0), 0)  # in sequence, held since 0
    gro.check_timeouts(15_000 - 1)
    gro.check_timeouts(15_000)  # exactly due: fires, silently
    assert gro.reasons == [FlushReason.INSEQ_TIMEOUT]
    early = armed(enable_buildup=False)[0]
    early.receive(data(0), 0)
    swapped(early, inseq_timeout=14_999)
    with raises("deliveries.*inseq_timeout"):
        early.check_timeouts(14_999)


def test_ofo_timeout_without_hole_raises():
    gro, _ = armed(TimesOutEveryHead, enable_buildup=False)
    gro.receive(data(0), 0)  # in sequence: no hole
    with raises("deliveries.*ofo_timeout"):
        gro.check_timeouts(gro.config.inseq_timeout)


def test_premature_ofo_timeout_raises():
    gro, _ = armed()
    established(gro)
    gro.receive(data(2), 1)  # hole since 1
    gro.check_timeouts(50_000)
    gro.check_timeouts(50_001)  # exactly due
    assert gro.reasons == [FlushReason.FLAGS, FlushReason.OFO_TIMEOUT]
    early = armed()[0]
    established(early)
    early.receive(data(2), 1)
    swapped(early, ofo_timeout=49_999)
    with raises("deliveries.*ofo_timeout"):
        early.check_timeouts(50_000)


class RetransmitsOutOfSequence(JugglerGRO):
    """Bug: old data goes up with a standard-GRO reason."""

    def _deliver_segment(self, segment, reason, now):
        if reason is FlushReason.RETRANSMISSION:
            reason = FlushReason.OUT_OF_SEQUENCE
        super()._deliver_segment(segment, reason, now)


def test_standard_gro_flush_reason_raises():
    gro, _ = armed(RetransmitsOutOfSequence)
    established(gro)
    with raises("GroStats.*out_of_sequence"):
        gro.receive(data(0), 1)


# --- §4.3: eviction preference ------------------------------------------------


def test_eviction_from_loss_recovery_while_inactive_exists_raises():
    lost, drained, new = (FiveTuple(1, 2, port, 80) for port in (1, 2, 3))
    for policy, evicted in (("inactive_first", drained),
                            ("active_first", lost)):
        gro, _ = armed(table_capacity=2)
        in_loss_recovery(gro, lost)
        established(gro, drained, 100 * US)
        swapped(gro, eviction_policy=policy)
        if policy == "inactive_first":  # the preferred victim: silent
            gro.receive(data(0, new), 200 * US)
            assert evicted not in gro.table and lost in gro.table
            continue
        with pytest.raises(SanitizerError) as exc:
            gro.receive(data(0, new), 200 * US)
        message = str(exc.value)
        assert "phase transitions (flow, old, new) differ" in message
        engine, spec = message.split("\n")[1:3]
        assert repr(lost) in engine and "LOSS_RECOVERY" in engine
        assert repr(drained) in spec and "POST_MERGE" in spec


def test_fifo_eviction_accepts_any_victim():
    lost = FiveTuple(1, 2, 1, 80)
    gro, _ = armed(table_capacity=2, eviction_policy="fifo")
    in_loss_recovery(gro, lost)
    established(gro, FiveTuple(1, 2, 2, 80), 100 * US)
    gro.receive(data(0, FiveTuple(1, 2, 3, 80)), 200 * US)
    assert lost not in gro.table
    assert gro.stats.evictions == {Phase.LOSS_RECOVERY: 1}


def test_active_first_eviction_inverts_the_preference():
    active, drained, new = (FiveTuple(1, 2, port, 80) for port in (1, 2, 3))
    for policy in ("active_first", "inactive_first"):
        gro, _ = armed(table_capacity=2, eviction_policy=policy)
        gro.receive(data(0, active), 0)
        established(gro, drained, 1)
        swapped(gro, eviction_policy="active_first")
        if policy == "active_first":
            gro.receive(data(0, new), 2)
            assert active not in gro.table and drained in gro.table
            continue
        # The active list taken from while the inactive one is non-empty.
        with raises("deliveries.*eviction"):
            gro.receive(data(0, new), 2)


# --- activation paths ---------------------------------------------------------


def test_env_var_arms_new_components(monkeypatch):
    monkeypatch.setenv("JUGGLER_SANITIZE", "1")
    runtime.reset()
    gro = JugglerGRO(lambda s: None, JugglerConfig())
    gro.receive(data(0), 0)
    gro.poll_complete(0)
    assert runtime.current().checks_run == 2


@pytest.mark.parametrize("kind", GroKind, ids=lambda kind: kind.value)
def test_every_engine_kind_is_shadowed(kind):
    with runtime.sanitizing() as san:
        gro = make_gro_factory(kind)(lambda segment: None)
    gro.receive(data(0), 0)
    gro.poll_complete(0)
    assert san.checks_run == 2


@pytest.mark.parametrize("value", ["", "0", "false", "off", "no"])
def test_falsy_env_values_stay_disabled(monkeypatch, value):
    monkeypatch.setenv("JUGGLER_SANITIZE", value)
    runtime.reset()
    assert runtime.current() is None
    assert "receive_batch" not in vars(JugglerGRO(lambda s: None))


def test_install_uninstall_cycle():
    from repro.analysis.sanitizer import Sanitizer

    san = runtime.install(Sanitizer())
    JugglerGRO(lambda s: None).receive(data(0), 0)
    assert san.checks_run == 1
    runtime.uninstall()
    JugglerGRO(lambda s: None).receive(data(0), 0)
    assert san.checks_run == 1


def test_sanitizing_context_manager_scopes():
    runtime.uninstall()
    with runtime.sanitizing() as san:
        assert runtime.current() is san
        gro = JugglerGRO(lambda s: None)
    assert runtime.current() is None
    gro.receive(data(0), 0)  # armed when built: checked after the block
    assert san.checks_run == 1


# --- end to end ---------------------------------------------------------------


def test_clean_reordered_run_is_silent_and_checked():
    """A shadowed engine digests reordering, timeouts and teardown."""
    gro, san = armed()
    order = [0, 2, 1, 3, 6, 4, 5, 8, 7, 9]
    now = 0
    for i, idx in enumerate(order):
        now = i * 2_000
        gro.receive(Packet(FLOW, idx * MSS, MSS), now=now)
        gro.poll_complete(now=now)
    # Age the flow past every timeout so the sweep paths run checked too.
    gro.poll_complete(now=now + 200_000)
    gro.flush_all(now=now + 400_000)
    assert san.checks_run == 2 * len(order) + 2
