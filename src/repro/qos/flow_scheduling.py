"""Dynamic flow scheduling by packet priority — the paper's §2.1 motivation.

"Dynamically changing a flow's priority is a powerful technique for
fine-grained traffic differentiation and flow scheduling controlled by
end-hosts.  For example, pFabric dynamically increases a flow's priority as
it nears completion to implement the Shortest Remaining Processing Time
(SRPT) scheduling policy."

One end-host marker over the fabric's two strict-priority levels,
:class:`PiasMarker` — PIAS-style: a packet goes high priority while the
flow's *sent-so-far* bytes are below a threshold (information-agnostic;
flows demote themselves as they age).  pFabric's SRPT marking is not
reproduced.  The marker changes a flow's priority mid-stream, so packets of
one flow straddle two switch queues — precisely the reordering Juggler
exists to absorb.
"""

from __future__ import annotations

from repro.net.constants import PRIORITY_HIGH, PRIORITY_LOW
from repro.net.packet import Packet


class PiasMarker:
    """PIAS-flavoured: high priority for a flow's first bytes, then demote."""

    def __init__(self, threshold_bytes: int):
        if threshold_bytes < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold_bytes}")
        self.threshold_bytes = threshold_bytes
        self.high_marked = 0
        self.low_marked = 0

    def priority_fn(self, packet: Packet) -> int:
        """High priority while the byte offset is below the threshold.

        Retransmissions keep whatever class their offset dictates, so a
        demoted flow's recovery does not jump the queue.
        """
        if packet.seq < self.threshold_bytes:
            self.high_marked += 1
            return PRIORITY_HIGH
        self.low_marked += 1
        return PRIORITY_LOW
