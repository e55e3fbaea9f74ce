"""Table 1: the five phases in the lifetime of a flow.

Verifies the full lifecycle walk (initial → build-up → active merging ⇄
post merge, plus loss recovery).
"""

from conftest import show

from repro.core.config import JugglerConfig
from repro.core.juggler import JugglerGRO
from repro.core.phases import Phase
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet
from repro.sim.time import US

FLOW = FiveTuple(1, 2, 1000, 80)


def walk_lifecycle():
    """One flow through every phase; returns the observed phase sequence."""
    sink = []
    gro = JugglerGRO(sink.append, JugglerConfig(inseq_timeout=15 * US,
                                                ofo_timeout=50 * US))
    observed = []

    def phase():
        entry = gro.table.lookup(FLOW)
        return entry.phase if entry is not None else None

    gro.receive(Packet(FLOW, 0, MSS), now=0)          # initial -> build-up
    observed.append(phase())
    gro.check_timeouts(20 * US)                       # first flush
    gro.receive(Packet(FLOW, 2 * MSS, MSS), 25 * US)  # hole -> active merge
    observed.append(phase())
    gro.receive(Packet(FLOW, MSS, MSS), 30 * US)      # fills the hole
    gro.check_timeouts(46 * US)                       # inseq flush empties
    observed.append(phase())                          # -> post merge
    gro.receive(Packet(FLOW, 5 * MSS, MSS), 50 * US)  # hole again
    gro.check_timeouts(120 * US)                      # ofo -> loss recovery
    observed.append(phase())
    gro.receive(Packet(FLOW, 3 * MSS, 2 * MSS), 130 * US)  # hole filled
    observed.append(phase())
    return observed


def test_tab01_lifecycle():
    observed = walk_lifecycle()
    assert observed == [
        Phase.BUILD_UP,
        Phase.ACTIVE_MERGE,
        Phase.POST_MERGE,
        Phase.LOSS_RECOVERY,
        Phase.POST_MERGE,
    ]
    rows = "\n".join(f"  {i + 1}. {p.value}" for i, p in enumerate(observed))
    show("Table 1 — flow lifecycle phases (observed walk)",
         f"initial (transient)\n{rows}")
