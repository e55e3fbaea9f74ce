"""NAPI/hrtimer interplay edge cases."""

from repro.core.config import JugglerConfig
from repro.core.juggler import JugglerGRO
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet
from repro.nic.rxqueue import RxQueue
from repro.sim.engine import Engine
from repro.sim.time import MS, US

FLOW = FiveTuple(1, 2, 1000, 80)


def pkt(seq):
    return Packet(FLOW, seq, MSS)


def make(engine, inseq_us=15, ofo_us=50, coalesce_us=10):
    out = []
    gro = JugglerGRO(out.append, JugglerConfig(inseq_timeout=inseq_us * US,
                                               ofo_timeout=ofo_us * US))
    queue = RxQueue(engine, gro, coalesce_ns=coalesce_us * US)
    return queue, gro, out


def test_quiescent_flow_flushed_by_hrtimer_not_stuck():
    """Data buffered when traffic stops entirely must still come out."""
    engine = Engine()
    queue, gro, out = make(engine)
    queue.enqueue(pkt(0))
    engine.run()  # drain every event: interrupt, poll, hrtimer
    assert sum(s.mtus for s in out) == 1
    assert gro.next_deadline() is None


def test_hrtimer_rearmed_after_each_fire():
    """A chain of deadlines (inseq then ofo) fires without fresh polls."""
    engine = Engine()
    queue, gro, out = make(engine)
    queue.enqueue(pkt(0))
    queue.enqueue(pkt(2 * MSS))
    engine.run()  # no further traffic at all
    # inseq flushed packet 0; the hole then aged out via ofo.
    assert sum(s.mtus for s in out) == 2
    assert gro.loss_recovery_list_len == 1


def test_zero_inseq_timeout_does_not_spin():
    """inseq_timeout=0 must terminate (every fire makes progress)."""
    engine = Engine()
    queue, gro, out = make(engine, inseq_us=0)
    for i in range(8):
        queue.enqueue(pkt(i * MSS))
    engine.run(max_events=10_000)
    assert engine.pending == 0  # drained, no timer livelock
    assert sum(s.mtus for s in out) == 8


def test_interleaved_polls_and_timer_fires():
    engine = Engine()
    queue, gro, out = make(engine, coalesce_us=30)
    # Three bursts separated by more than the coalescing window.
    for burst in range(3):
        base = burst * 10
        for i in range(4):
            engine.schedule(burst * 200 * US + i * 2 * US,
                            queue.enqueue, pkt((base + i) * MSS))
    engine.run_until(2 * MS)
    assert sum(s.mtus for s in out) == 12
    assert queue.polls == 3


def test_drain_cancels_hrtimer():
    engine = Engine()
    queue, gro, out = make(engine)
    queue.enqueue(pkt(0))
    queue.drain()
    assert not queue._hrtimer.armed
    assert sum(s.mtus for s in out) == 1
