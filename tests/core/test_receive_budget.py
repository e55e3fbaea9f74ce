"""Juggler's per-packet and per-flow budgets of Python-level calls — counts,
not timings.

Each rig runs under ``sys.setprofile`` (see ``repro.perf.counts``) with N
and with 2N packets (or tracked flows) and the difference is divided by N, so
what a poll or a sweep pays once cancels exactly.  Per unit, besides the
table probe's ``FiveTuple.__hash__`` — before, then now:

    in-sequence packet,       2  _buffer_packet -> insert
      JugglerGRO              1  insert
    straggler closing         8  _buffer_packet -> insert -> _set,
      a gap                        can_append, append -> Packet.end_seq,
                                   can_extend, extend
                              2  insert -> extend
    tracked flow, per walk    3  the iter_with_deadlines resume,
      of next_deadline and         head_in_sequence -> head
      check_timeouts          0
    in-sequence packet,       6  StandardGRO.receive -> can_append,
      StandardGRO                  append -> Packet.end_seq, closed,
                                   payload_len
                              0

The packet loop in ``JugglerGRO.receive_batch`` reads the queue's ``nodes``
and the segments' slots directly: one ``OfoQueue.insert`` call is the whole
of ``core/`` per buffered packet, and the insert's straggler branch runs the
``Segment.can_append`` / ``append`` / ``can_extend`` predicates and stores on
slots, leaving ``Segment.extend`` the one call when a gap closes.  The
timeout walks iterate ``GroTable.deadline_lists()`` with the
head-in-sequence test as slot reads.
"""

from repro.core import JugglerConfig, JugglerGRO, StandardGRO
from repro.core.phases import Phase
from repro.net import FiveTuple, MSS, Packet
from repro.perf.counts import marginal_calls
from repro.sim.time import US

FLOW = FiveTuple(1, 2, 1000, 80)
PROBE = ("net/addr.py", "__hash__")
INSERT = ("core/ofo_queue.py", "insert")


def per_unit(rig, n=20):
    """``(file, function) -> calls`` per unit of ``rig``, exact."""
    marginal = marginal_calls(rig(n), rig(2 * n))
    assert all(count % n == 0 for count in marginal.values()), marginal
    return {key: count // n for key, count in marginal.items()}


def established():
    """An engine holding FLOW past BUILD_UP, its queue drained (built here,
    outside any count)."""
    gro = JugglerGRO(lambda segment: None, JugglerConfig())
    gro.attach_sanitizer(None)  # the budget is the unsanitized path's
    for k in range(3):
        gro.receive(Packet(FLOW, k * MSS, MSS), 0)
    gro.check_timeouts(51 * US)  # inseq_timeout: out of BUILD_UP
    entry = gro.table.lookup(FLOW)
    assert entry.phase is Phase.POST_MERGE and entry.seq_next == 3 * MSS
    return gro, entry


def in_sequence_rig(packets: int):
    """The run that hands an established flow ``packets`` more in-sequence
    packets.  Nothing fills a 64 KB segment, so nothing flushes."""
    gro, entry = established()
    poll = [Packet(FLOW, (3 + k) * MSS, MSS) for k in range(packets)]

    def run():
        gro.receive_batch(poll, 60 * US)
        assert gro.stats.segments == 1  # the warm-up's: nothing flushed
        assert entry.ofo.nodes[0].mtus == packets

    return run


def test_marginal_calls_per_in_sequence_packet():
    assert per_unit(in_sequence_rig) == {INSERT: 1, PROBE: 1}


def straggler_rig(stragglers: int):
    """The run that hands an established flow ``stragglers`` packets, each
    closing the gap between two buffered runs; a hole at ``seq_next``
    stays open, so nothing flushes."""
    gro, entry = established()
    base = entry.seq_next
    gro.receive_batch([Packet(FLOW, base + (4 * k + d) * MSS, MSS)
                       for k in range(stragglers) for d in (1, 3)], 60 * US)
    poll = [Packet(FLOW, base + (4 * k + 2) * MSS, MSS)
            for k in range(stragglers)]

    def run():
        gro.receive_batch(poll, 61 * US)
        assert [node.mtus for node in entry.ofo.nodes] == [3] * stragglers
        assert entry.hole_since == 60 * US

    return run


def test_marginal_calls_per_straggler_closing_a_gap():
    assert per_unit(straggler_rig) == {
        INSERT: 1, ("net/segment.py", "extend"): 1, PROBE: 1}


def sweep_rig(flows: int):
    """``next_deadline`` and a ``check_timeouts`` sweep over ``flows`` flows
    whose in-sequence heads are not yet due, plus one that fires."""
    gro = JugglerGRO(lambda segment: None,
                     JugglerConfig(table_capacity=2 * flows + 1))
    gro.attach_sanitizer(None)
    gro.receive(Packet(FiveTuple(9, 2, 999, 80), 0, MSS), 0)
    for i in range(flows):
        gro.receive(Packet(FiveTuple(1, 2, 2000 + i, 80), 0, MSS), 40 * US)

    def run():
        assert gro.next_deadline() == 15 * US
        gro.check_timeouts(50 * US)
        assert gro.stats.segments == 1  # the one due flow, and only it

    return run


def test_timeout_walks_cost_no_call_per_tracked_flow():
    assert per_unit(sweep_rig) == {}


def standard_rig(packets: int):
    """The run that hands a flow StandardGRO holds ``packets`` more
    in-sequence packets in one poll (engine and hold made here)."""
    gro = StandardGRO(lambda segment: None)
    gro.receive(Packet(FLOW, 0, MSS), 0)
    poll = [Packet(FLOW, (1 + k) * MSS, MSS) for k in range(packets)]

    def run():
        gro.receive_batch(poll, 0)
        assert gro.stats.segments == 0  # nothing flushed
        assert gro._batch[FLOW].mtus == 1 + packets

    return run


def test_marginal_calls_per_in_sequence_packet_through_standard_gro():
    # The ``_batch`` probe's hash, and nothing else, in any file.
    assert per_unit(standard_rig) == {PROBE: 1}
