"""The PIAS packet marker."""

import pytest

from repro.net.addr import FiveTuple
from repro.net.constants import MSS, PRIORITY_HIGH, PRIORITY_LOW
from repro.net.packet import Packet
from repro.qos.flow_scheduling import PiasMarker

FLOW = FiveTuple(0, 1, 1000, 80)


def pkt(seq):
    return Packet(FLOW, seq, MSS)


def test_pias_first_bytes_high_then_demoted():
    marker = PiasMarker(threshold_bytes=10 * MSS)
    assert marker.priority_fn(pkt(0)) == PRIORITY_HIGH
    assert marker.priority_fn(pkt(9 * MSS)) == PRIORITY_HIGH
    assert marker.priority_fn(pkt(10 * MSS)) == PRIORITY_LOW
    assert marker.priority_fn(pkt(100 * MSS)) == PRIORITY_LOW
    assert marker.high_marked == 2 and marker.low_marked == 2


def test_pias_retransmission_keeps_offset_class():
    marker = PiasMarker(threshold_bytes=10 * MSS)
    retx = Packet(FLOW, 50 * MSS, MSS, is_retransmission=True)
    assert marker.priority_fn(retx) == PRIORITY_LOW


def test_pias_validates_threshold():
    with pytest.raises(ValueError):
        PiasMarker(-1)


def test_whole_short_flow_rides_high_priority():
    """Mice below the threshold never touch the low-priority queue."""
    marker = PiasMarker(threshold_bytes=100_000)
    picks = {marker.priority_fn(pkt(i * MSS)) for i in range(30)}
    assert picks == {PRIORITY_HIGH}
