"""JSAN adversarial tests: every guarded contract, forced to break.

Each test corrupts engine state the way a bug would and asserts the
sanitizer raises a readable diagnostic at the faulting operation — plus
the activation paths (env var, install/uninstall, context manager) and a
clean end-to-end run that must stay silent.
"""

import pytest

from repro.analysis import runtime
from repro.analysis.sanitizer import Sanitizer, SanitizerError
from repro.core.config import JugglerConfig
from repro.core.flow_entry import FlowEntry
from repro.core.flush import FlushReason
from repro.core.gro_table import GroTable
from repro.core.juggler import JugglerGRO
from repro.core.phases import Phase
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet

FLOW = FiveTuple(1, 2, 1000, 80)


@pytest.fixture(autouse=True)
def _restore_runtime():
    """Leave the process-wide sanitizer exactly as the suite found it."""
    yield
    runtime.reset()


def entry(i=0, phase=Phase.ACTIVE_MERGE, seq_next=0):
    e = FlowEntry(FiveTuple(1, 2, 1000 + i, 80), 0)
    e.phase = phase
    e.seq_next = seq_next
    if phase is Phase.LOSS_RECOVERY:
        e.lost_seq = seq_next
    return e


def sanitized_table(capacity=4):
    table = GroTable(capacity)
    table.sanitizer = Sanitizer()
    return table


# --- Table 1: phase transitions ----------------------------------------------


def test_post_merge_to_build_up_raises():
    table = sanitized_table()
    e = entry()
    table.add(e)
    table.move(e, Phase.POST_MERGE)
    with pytest.raises(SanitizerError) as exc:
        table.move(e, Phase.BUILD_UP)
    message = str(exc.value)
    assert "JSAN" in message
    assert "illegal phase transition post_merge -> build_up" in message
    assert str(e.key) in message
    assert "active_merge" in message  # the legal successor is named


def test_build_up_to_loss_recovery_raises():
    table = sanitized_table()
    e = entry(phase=Phase.BUILD_UP)
    table.add(e)
    with pytest.raises(SanitizerError, match="illegal phase transition"):
        table.move(e, Phase.LOSS_RECOVERY)


def test_self_transition_is_a_legal_requeue():
    table = sanitized_table()
    e = entry()
    table.add(e)
    table.move(e, Phase.ACTIVE_MERGE)  # FIFO re-enqueue, not a move


def test_legal_lifecycle_walk_is_silent():
    table = sanitized_table()
    e = entry(phase=Phase.BUILD_UP)
    table.add(e)
    table.move(e, Phase.ACTIVE_MERGE)
    table.move(e, Phase.POST_MERGE)
    table.move(e, Phase.ACTIVE_MERGE)
    e.lost_seq = 0
    table.move(e, Phase.LOSS_RECOVERY)
    e.lost_seq = None
    table.move(e, Phase.ACTIVE_MERGE)


def test_admission_in_loss_recovery_raises():
    table = sanitized_table()
    with pytest.raises(SanitizerError, match="admitted .* loss_recovery"):
        table.add(entry(phase=Phase.LOSS_RECOVERY))


# --- Figure 4: list residency -------------------------------------------------


def test_entry_on_two_lists_raises():
    table = sanitized_table()
    e = entry()
    table.add(e)
    table._lists["inactive"][e.key] = e  # corrupt: duplicate residency
    with pytest.raises(SanitizerError) as exc:
        table.sanitizer.check_table(table)
    assert "resident on both the active and inactive lists" in str(exc.value)


def test_tracked_but_listless_entry_raises():
    table = sanitized_table()
    e = entry()
    table.add(e)
    del table._lists["active"][e.key]  # corrupt: index without residency
    with pytest.raises(SanitizerError, match="resident on no list"):
        table.sanitizer.check_table(table)


def test_phase_list_disagreement_raises():
    table = sanitized_table()
    e = entry()
    table.add(e)
    e.phase = Phase.POST_MERGE  # corrupt: phase changed without move()
    with pytest.raises(SanitizerError, match="stored on the active list"):
        table.sanitizer.check_table(table)


def test_healthy_table_audit_is_silent():
    table = sanitized_table()
    table.add(entry(0))
    table.add(entry(1, phase=Phase.BUILD_UP))
    table.sanitizer.check_table(table)
    assert table.sanitizer.checks_run >= 3  # 2 admissions + 1 audit


# --- flow / ofo invariants ----------------------------------------------------


def test_lost_seq_outside_loss_recovery_raises():
    e = entry()
    e.lost_seq = 123  # corrupt: loss marker in active merge
    with pytest.raises(SanitizerError, match="lost_seq=123"):
        Sanitizer().check_flow(e)


def test_post_merge_with_buffered_data_raises():
    e = entry(phase=Phase.POST_MERGE)
    e.ofo.insert(Packet(e.key, MSS, MSS))
    e.hole_since = 0
    with pytest.raises(SanitizerError, match="post_merge entry still buffers"):
        Sanitizer().check_flow(e)


def test_phantom_hole_raises():
    e = entry()
    e.ofo.insert(Packet(e.key, 0, MSS))  # head is in sequence
    e.hole_since = 50  # corrupt: armed timeout with no hole
    with pytest.raises(SanitizerError, match="phantom ofo_timeout"):
        Sanitizer().check_flow(e)


def test_unarmed_hole_raises():
    e = entry()
    e.ofo.insert(Packet(e.key, 2 * MSS, MSS))  # hole, but hole_since unset
    with pytest.raises(SanitizerError, match="ofo_timeout would never fire"):
        Sanitizer().check_flow(e)


def test_overlapping_ofo_runs_raise():
    e = entry()
    e.ofo.insert(Packet(e.key, 0, 2 * MSS))
    spare = FlowEntry(e.key, 0)
    spare.ofo.insert(Packet(e.key, MSS, MSS))
    e.ofo.nodes.append(spare.ofo.nodes[0])  # corrupt: overlapping run
    with pytest.raises(SanitizerError, match="overlaps the previous run"):
        Sanitizer().check_ofo(e)


# --- Table 2: flush validity --------------------------------------------------


def test_event_flush_with_inseq_head_is_silent():
    e = entry()
    e.ofo.insert(Packet(e.key, 0, MSS))
    Sanitizer().check_event_flush(e, FlushReason.SEGMENT_FULL)


def test_event_flush_with_standard_gro_reason_raises():
    e = entry()
    e.ofo.insert(Packet(e.key, 0, MSS))
    with pytest.raises(SanitizerError, match="tagged poll_end"):
        Sanitizer().check_event_flush(e, FlushReason.POLL_END)


def test_event_flush_of_out_of_sequence_head_raises():
    e = entry()
    e.ofo.insert(Packet(e.key, MSS, MSS))  # head beyond seq_next
    with pytest.raises(SanitizerError, match="not in sequence"):
        Sanitizer().check_event_flush(e, FlushReason.SEGMENT_FULL)


def test_premature_inseq_timeout_raises():
    e = entry()
    e.ofo.insert(Packet(e.key, 0, MSS))
    e.flush_timestamp = 0
    san = Sanitizer()
    san.check_inseq_timeout(e, now=15_000, timeout=15_000)  # exactly due
    with pytest.raises(SanitizerError, match="before the timeout expired"):
        san.check_inseq_timeout(e, now=14_999, timeout=15_000)


def test_ofo_timeout_without_hole_raises():
    e = entry()
    with pytest.raises(SanitizerError, match="no hole armed"):
        Sanitizer().check_ofo_timeout(e, now=100, timeout=50)


def test_premature_ofo_timeout_raises():
    e = entry()
    e.ofo.insert(Packet(e.key, 2 * MSS, MSS))
    e.hole_since = 0
    san = Sanitizer()
    san.check_ofo_timeout(e, now=50_000, timeout=50_000)
    with pytest.raises(SanitizerError, match="before the timeout expired"):
        san.check_ofo_timeout(e, now=49_999, timeout=50_000)


def test_standard_gro_flush_reason_raises():
    san = Sanitizer()
    san.check_flush_reason(FLOW, FlushReason.EVICTION)
    with pytest.raises(SanitizerError, match="resilient path"):
        san.check_flush_reason(FLOW, FlushReason.OUT_OF_SEQUENCE)


# --- §4.3: eviction preference ------------------------------------------------


def test_eviction_from_loss_recovery_while_inactive_exists_raises():
    table = sanitized_table()
    inactive = entry(0)
    table.add(inactive)
    table.move(inactive, Phase.POST_MERGE)
    loss = entry(1)
    table.add(loss)
    loss.lost_seq = 0
    table.move(loss, Phase.LOSS_RECOVERY)
    with pytest.raises(SanitizerError) as exc:
        table.sanitizer.check_eviction(table, loss, "inactive_first")
    message = str(exc.value)
    assert ("eviction from the loss_recovery list while the inactive "
            "list is non-empty") in message
    assert "inactive > active > loss_recovery" in message
    # The preferred victim passes the same check.
    table.sanitizer.check_eviction(table, inactive, "inactive_first")


def test_fifo_eviction_accepts_any_victim():
    table = sanitized_table()
    loss = entry(0)
    table.add(loss)
    loss.lost_seq = 0
    table.move(loss, Phase.LOSS_RECOVERY)
    table.add(entry(1, phase=Phase.BUILD_UP))
    table.sanitizer.check_eviction(table, loss, "fifo")


def test_active_first_eviction_inverts_the_preference():
    table = sanitized_table()
    active = entry(0)
    table.add(active)
    inactive = entry(1)
    table.add(inactive)
    table.move(inactive, Phase.POST_MERGE)
    table.sanitizer.check_eviction(table, active, "active_first")
    with pytest.raises(SanitizerError, match="while the active list"):
        table.sanitizer.check_eviction(table, inactive, "active_first")


def test_unknown_eviction_policy_raises():
    table = sanitized_table()
    e = entry()
    table.add(e)
    with pytest.raises(SanitizerError, match="unknown eviction policy"):
        table.sanitizer.check_eviction(table, e, "bogus")


# --- activation paths ---------------------------------------------------------


def test_env_var_arms_new_components(monkeypatch):
    monkeypatch.setenv("JUGGLER_SANITIZE", "1")
    runtime.reset()
    table = GroTable(2)
    assert isinstance(table.sanitizer, Sanitizer)
    gro = JugglerGRO(lambda s: None, JugglerConfig())
    assert gro.sanitizer is gro.table.sanitizer
    assert isinstance(gro.sanitizer, Sanitizer)


@pytest.mark.parametrize("value", ["", "0", "false", "off", "no"])
def test_falsy_env_values_stay_disabled(monkeypatch, value):
    monkeypatch.setenv("JUGGLER_SANITIZE", value)
    runtime.reset()
    assert runtime.current() is None
    assert GroTable(2).sanitizer is None


def test_install_uninstall_cycle():
    san = Sanitizer()
    runtime.install(san)
    assert GroTable(2).sanitizer is san
    runtime.uninstall()
    assert GroTable(2).sanitizer is None


def test_sanitizing_context_manager_scopes():
    runtime.uninstall()
    with runtime.sanitizing() as san:
        assert runtime.current() is san
        assert GroTable(2).sanitizer is san
    assert runtime.current() is None


def test_attach_sanitizer_after_construction():
    runtime.uninstall()
    gro = JugglerGRO(lambda s: None, JugglerConfig())
    assert gro.sanitizer is None
    san = Sanitizer()
    gro.attach_sanitizer(san)
    assert gro.sanitizer is san and gro.table.sanitizer is san
    gro.attach_sanitizer(None)
    assert gro.sanitizer is None and gro.table.sanitizer is None


# --- end to end ---------------------------------------------------------------


def test_clean_reordered_run_is_silent_and_checked():
    """A sanitized engine digests reordering, timeouts and teardown."""
    san = Sanitizer()
    gro = JugglerGRO(lambda s: None, JugglerConfig())
    gro.attach_sanitizer(san)
    order = [0, 2, 1, 3, 6, 4, 5, 8, 7, 9]
    now = 0
    for i, idx in enumerate(order):
        now = i * 2_000
        gro.receive(Packet(FLOW, idx * MSS, MSS), now=now)
        gro.poll_complete(now=now)
    # Age the flow past every timeout so the sweep paths run checked too.
    gro.poll_complete(now=now + 200_000)
    gro.flush_all(now=now + 400_000)
    assert san.checks_run > len(order)  # per-packet hooks plus audits
