"""An in-sequence packet's budget of Python-level calls — a count, not a
timing.

An established flow's next packets go through ``JugglerGRO.receive_batch``
under ``sys.setprofile`` (see ``tests/callcount.py``); the run is made with N
and with 2N packets and the difference divided by N, so what a poll pays once
— ``receive_batch`` itself, the first packet's POST_MERGE -> ACTIVE_MERGE move
— cancels exactly.  Neither run fills a 64 KB segment, so nothing flushes.

Per further packet — before (22 calls, 15 of them in ``core/``):

    lookup (-> FiveTuple.__hash__), _receive_established -> Packet.end_seq x2,
      _buffer_packet -> insert -> can_append, append, InsertResult._set;
        refresh_hole_state -> has_hole -> head
    _event_checks -> head, Segment.payload_len, Segment.closed,
      _after_flush_transitions -> refresh_hole_state -> has_hole -> head,
        OfoQueue.__bool__

now (2): ``_buffer_packet -> insert``.  The table probe (its
``FiveTuple.__hash__`` aside), the event checks and both hole-clock refreshes
are inline reads of ``nodes`` and segment slots.

The same for a held flow's next packets through ``StandardGRO.receive_batch``
— before (6, besides the probe's hash): ``StandardGRO.receive ->
Segment.can_append, Segment.append -> Packet.end_seq, Segment.closed,
Segment.payload_len``; now none: the merge and both flush tests are slot
reads and stores in the batch body.
"""

from repro.core import JugglerConfig, JugglerGRO, StandardGRO
from repro.core.phases import Phase
from repro.net import FiveTuple, MSS, Packet
from repro.sim.time import US

from ..callcount import marginal_calls

FLOW = FiveTuple(1, 2, 1000, 80)
#: Helper-chain members the per-packet path must not go back to calling.
RETIRED = [
    ("core/ofo_queue.py", "head"), ("core/ofo_queue.py", "_set"),
    ("core/ofo_queue.py", "__bool__"), ("core/flow_entry.py", "has_hole"),
    ("core/flow_entry.py", "refresh_hole_state"),
    ("core/gro_table.py", "lookup"), ("net/segment.py", "payload_len"),
    ("net/segment.py", "closed"), ("net/packet.py", "end_seq"),
]


def rig(packets: int):
    """The run that hands an established flow ``packets`` more in-sequence
    packets (engine built and warmed here, outside the count)."""
    gro = JugglerGRO(lambda segment: None, JugglerConfig())
    gro.attach_sanitizer(None)  # the budget is the unsanitized path's
    for k in range(3):
        gro.receive(Packet(FLOW, k * MSS, MSS), 0)
    gro.check_timeouts(51 * US)  # inseq_timeout: out of BUILD_UP
    entry = gro.table.lookup(FLOW)
    assert entry.phase is Phase.POST_MERGE and entry.seq_next == 3 * MSS
    poll = [Packet(FLOW, (3 + k) * MSS, MSS) for k in range(packets)]

    def run():
        gro.receive_batch(poll, 60 * US)
        assert gro.stats.segments == 1  # the warm-up's: nothing flushed
        assert entry.ofo.nodes[0].mtus == packets

    return run


def test_marginal_calls_per_in_sequence_packet():
    n = 20
    marginal = marginal_calls(rig(n), rig(2 * n))
    assert all(count % n == 0 for count in marginal.values()), marginal
    per_packet = {key: count // n for key, count in marginal.items()}
    for key in RETIRED:
        assert key not in per_packet, per_packet
    core = sum(count for (filename, _), count in per_packet.items()
               if filename.startswith("core/"))
    assert core <= 3, per_packet
    # Nothing outside core/ runs per packet but the table probe's hash.
    assert per_packet.pop(("net/addr.py", "__hash__")) == 1
    assert sum(per_packet.values()) == core, per_packet


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
    n = 20
    marginal = marginal_calls(standard_rig(n), standard_rig(2 * n))
    assert all(count % n == 0 for count in marginal.values()), marginal
    per_packet = {key: count // n for key, count in marginal.items()}
    for key in RETIRED + [("net/segment.py", "can_append"),
                          ("net/segment.py", "append"),
                          ("core/standard_gro.py", "receive")]:
        assert key not in per_packet, per_packet
    # The ``_batch`` probe's hash, and nothing else, in any file.
    assert per_packet == {("net/addr.py", "__hash__"): 1}, per_packet
