"""Base GroEngine plumbing shared by all engines."""

from repro.core.config import JugglerConfig
from repro.core.flush import FlushReason
from repro.core.juggler import JugglerGRO
from repro.core.standard_gro import StandardGRO
from repro.core.base import GroEngine
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet

FLOW = FiveTuple(1, 2, 1000, 80)


def test_deliver_segment_stamps_flush_time():
    out = []
    gro = StandardGRO(out.append)
    gro.receive(Packet(FLOW, 0, MSS), now=0)
    gro.poll_complete(now=123)
    assert out[0].flushed_at == 123


def test_default_check_timeouts_and_deadline_noop():
    gro = StandardGRO(lambda s: None)
    gro.check_timeouts(now=100)  # default base impl: nothing to do
    assert gro.next_deadline() is None


def test_passthrough_not_counted_as_segment():
    out = []
    gro = JugglerGRO(out.append, JugglerConfig())
    gro.receive(Packet(FLOW, 0, 0), now=0)
    assert len(out) == 1
    assert gro.stats.segments == 0
    assert gro.stats.passthrough_packets == 1


def test_all_engines_share_interface():
    from repro.core.chained_gro import ChainedGRO
    from repro.core.presto_gro import PrestoGRO

    for cls in (StandardGRO, ChainedGRO):
        engine = cls(lambda s: None)
        assert isinstance(engine, GroEngine)
    for cls in (JugglerGRO, PrestoGRO):
        engine = cls(lambda s: None)
        assert isinstance(engine, GroEngine)
        assert engine.next_deadline() is None


def test_stats_flush_reason_tagging():
    out = []
    gro = StandardGRO(out.append)
    gro.receive(Packet(FLOW, 0, MSS), now=0)
    gro.flush_all(now=1)
    assert gro.stats.flush_reasons[FlushReason.SHUTDOWN] == 1
