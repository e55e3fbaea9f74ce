#!/usr/bin/env python3
"""A microscope on Juggler's state machine (Figures 5, 6, 7 of the paper).

Feeds a hand-crafted packet arrival sequence into a bare JugglerGRO engine
and narrates every buffering decision, flush (and its Table 2 reason), and
phase transition — the exact walks the paper's Figures 6 and 7 illustrate.

The narration is driven by the ``repro.trace`` subsystem: a Tracer with a
CallbackSink is attached to the engine, and the engine's own FLUSH events
feed the printout — no monkey-patching of engine internals.

Run:  python examples/reordering_microscope.py
"""

from repro.core.config import JugglerConfig
from repro.core.juggler import JugglerGRO
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet
from repro.sim.time import US
from repro.trace.events import EventKind
from repro.trace.sinks import CallbackSink
from repro.trace.tracer import Tracer

FLOW = FiveTuple(1, 2, 1000, 80)


class Microscope:
    """Narrates a JugglerGRO engine through its trace events."""

    def __init__(self):
        config = JugglerConfig(inseq_timeout=15 * US, ofo_timeout=50 * US)
        self.gro = JugglerGRO(lambda segment: None, config)
        tracer = Tracer([CallbackSink(self._narrate)],
                        kinds={EventKind.FLUSH})
        self.gro.attach_tracer(tracer)

    @staticmethod
    def _narrate(event):
        print(f"    {event.ts / 1000:7.1f}us  FLUSH [{event.seq // MSS}"
              f"..{event.end_seq // MSS}) x{event.mtus} MTU "
              f"({event.reason.value})")

    def packet(self, index, now_us, note=""):
        print(f"    {now_us:7.1f}us  packet #{index} arrives  {note}")
        self.gro.receive(Packet(FLOW, index * MSS, MSS), int(now_us * 1000))
        self.state()

    def tick(self, now_us, note=""):
        print(f"    {now_us:7.1f}us  (timer check)  {note}")
        self.gro.check_timeouts(int(now_us * 1000))
        self.state()

    def state(self):
        entry = self.gro.table.lookup(FLOW)
        if entry is None:
            print("               flow not tracked")
            return
        nodes = [f"[{n.seq // MSS}..{n.end_seq // MSS})"
                 for n in entry.ofo.nodes]
        lost = (f" lost_seq=#{entry.lost_seq // MSS}"
                if entry.lost_seq is not None else "")
        print(f"               phase={entry.phase.value} "
              f"seq_next=#{(entry.seq_next or 0) // MSS} "
              f"queue={' '.join(nodes) or '(empty)'}{lost}")


def main() -> None:
    scope = Microscope()

    print("\n=== Figure 6: build-up, merging, and retransmission inference "
          "===\n")
    scope.packet(3, 0.0, "(first packet seen: build-up starts)")
    scope.packet(5, 1.0, "(buffered out of order)")
    scope.packet(2, 2.0, "(seq_next moves BACKWARD in build-up)")
    scope.tick(20.0, "inseq_timeout: flush the in-sequence run #2-#3")
    scope.packet(1, 25.0, "(below seq_next now: inferred retransmission, "
                          "flushed alone)")

    print("\n=== Figure 7: loss recovery ===\n")
    scope.tick(80.0, "ofo_timeout: #4 presumed lost; flush #5, enter "
                     "loss recovery")
    scope.packet(7, 85.0, "(buffered: loss recovery still merges)")
    scope.packet(6, 86.0, "(merges with #7)")
    scope.packet(4, 90.0, "(the 'lost' packet returns: hole filled, back "
                          "to active merging)")
    scope.tick(110.0, "inseq_timeout: flush #6-#7")

    print("\nEverything above reached TCP in the best order Juggler could "
          "manage,\nwhile holding at most a few hundred microseconds of "
          "packets.")


if __name__ == "__main__":
    main()
