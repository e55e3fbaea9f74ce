"""FlowEntry state helpers and the three-list GroTable."""

import pytest

from repro.core.flow_entry import FlowEntry
from repro.core.gro_table import GroTable
from repro.core.phases import Phase
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet

FLOW = FiveTuple(1, 2, 1000, 80)


def entry(i=0, now=0):
    return FlowEntry(FiveTuple(1, 2, 1000 + i, 80), now)


def test_new_entry_initial_phase():
    e = entry()
    assert e.phase is Phase.INITIAL
    assert e.seq_next is None
    assert e.lost_seq is None


def test_learn_seq_next_moves_backwards():
    e = entry()
    e.learn_seq_next(500)
    e.learn_seq_next(300)
    e.learn_seq_next(400)
    assert e.seq_next == 300


def test_advance_seq_next_only_forward():
    e = entry()
    e.seq_next = 100
    e.advance_seq_next(50)
    assert e.seq_next == 100
    e.advance_seq_next(200)
    assert e.seq_next == 200


def test_has_hole_and_head_in_sequence():
    e = entry()
    e.seq_next = 0
    e.ofo.insert(Packet(e.key, MSS, MSS))
    assert e.has_hole
    assert e.ofo.head.seq != e.seq_next
    e.ofo.insert(Packet(e.key, 0, MSS))
    assert not e.has_hole
    assert e.ofo.head.seq == e.seq_next


def test_refresh_hole_state_keeps_original_clock():
    e = entry()
    e.seq_next = 0
    e.ofo.insert(Packet(e.key, MSS, MSS))
    e.refresh_hole_state(now=100)
    assert e.hole_since == 100
    e.refresh_hole_state(now=500)
    assert e.hole_since == 100  # pre-existing hole keeps its timestamp


def test_refresh_hole_state_clears_when_filled():
    e = entry()
    e.seq_next = 0
    e.ofo.insert(Packet(e.key, MSS, MSS))
    e.refresh_hole_state(now=100)
    e.ofo.insert(Packet(e.key, 0, MSS))
    e.refresh_hole_state(now=200)
    assert e.hole_since is None


def test_phase_list_mapping():
    assert Phase.BUILD_UP.list_name == "active"
    assert Phase.ACTIVE_MERGE.list_name == "active"
    assert Phase.POST_MERGE.list_name == "inactive"
    assert Phase.LOSS_RECOVERY.list_name == "loss_recovery"
    assert Phase.INITIAL.list_name == "none"


# --- GroTable ----------------------------------------------------------------


def add(table, i, phase=Phase.BUILD_UP):
    # Admit the way the engine does (build-up / active-merge only), then
    # walk to the requested phase through legal Table 1 transitions —
    # keeps these fixtures valid under JUGGLER_SANITIZE=1.
    e = entry(i)
    e.phase = phase if phase in (Phase.BUILD_UP, Phase.ACTIVE_MERGE) \
        else Phase.ACTIVE_MERGE
    table.add(e)
    if e.phase is not phase:
        table.move(e, phase)
    return e


def test_add_and_lookup():
    table = GroTable(4)
    e = add(table, 0)
    assert table.lookup(e.key) is e
    assert len(table) == 1
    assert e.key in table


def test_lookup_missing_returns_none():
    assert GroTable(4).lookup(FLOW) is None


def test_capacity_enforced():
    table = GroTable(2)
    add(table, 0)
    add(table, 1)
    assert table.full
    with pytest.raises(ValueError):
        add(table, 2)


def test_duplicate_key_rejected():
    table = GroTable(4)
    e = add(table, 0)
    with pytest.raises(ValueError):
        table.add(e)


def test_move_rehomes_entry():
    table = GroTable(4)
    e = add(table, 0)
    assert table.active_len == 1
    table.move(e, Phase.ACTIVE_MERGE)
    assert table.active_len == 1
    table.move(e, Phase.POST_MERGE)
    assert table.active_len == 0
    assert table.inactive_len == 1
    table.move(e, Phase.ACTIVE_MERGE)
    table.move(e, Phase.LOSS_RECOVERY)
    assert table.inactive_len == 0
    assert table.loss_recovery_len == 1


def test_remove_clears_everywhere():
    table = GroTable(4)
    e = add(table, 0)
    table.remove(e)
    assert len(table) == 0
    assert table.active_len == 0


def test_victim_prefers_inactive():
    table = GroTable(4)
    active = add(table, 0, Phase.ACTIVE_MERGE)
    inactive = add(table, 1, Phase.POST_MERGE)
    loss = add(table, 2, Phase.LOSS_RECOVERY)
    assert table.pick_victim() is inactive


def test_victim_falls_back_to_active_then_loss():
    table = GroTable(4)
    loss = add(table, 0, Phase.LOSS_RECOVERY)
    active = add(table, 1, Phase.ACTIVE_MERGE)
    assert table.pick_victim() is active
    table.remove(active)
    assert table.pick_victim() is loss


def test_victim_fifo_within_list():
    table = GroTable(4)
    first = add(table, 0, Phase.POST_MERGE)
    add(table, 1, Phase.POST_MERGE)
    assert table.pick_victim() is first


def test_move_to_same_list_requeues_at_tail():
    table = GroTable(4)
    first = add(table, 0, Phase.ACTIVE_MERGE)
    second = add(table, 1, Phase.ACTIVE_MERGE)
    table.move(first, Phase.ACTIVE_MERGE)
    assert table.pick_victim() is second


def test_fifo_policy_ignores_phase():
    table = GroTable(4)
    first = add(table, 0, Phase.LOSS_RECOVERY)
    add(table, 1, Phase.POST_MERGE)
    assert table.pick_victim("fifo") is first


def test_active_first_policy_inverts():
    table = GroTable(4)
    add(table, 0, Phase.POST_MERGE)
    active = add(table, 1, Phase.ACTIVE_MERGE)
    assert table.pick_victim("active_first") is active


def test_unknown_policy_rejected():
    table = GroTable(4)
    add(table, 0)
    with pytest.raises(ValueError):
        table.pick_victim("bogus")


def test_empty_table_eviction_raises():
    with pytest.raises(LookupError):
        GroTable(4).pick_victim()


def test_iter_with_deadlines_covers_active_and_loss():
    table = GroTable(8)
    a = add(table, 0, Phase.ACTIVE_MERGE)
    b = add(table, 1, Phase.POST_MERGE)
    c = add(table, 2, Phase.LOSS_RECOVERY)
    active, loss_recovery = table.deadline_lists()
    assert list(active) == [a] and list(loss_recovery) == [c]
    assert b not in [*active, *loss_recovery]


def test_capacity_validation():
    with pytest.raises(ValueError):
        GroTable(0)
