"""The five phases in the lifetime of a flow (Table 1 / Figure 5).

====================  =======================================================
Phase                 Rationale (paper section)
====================  =======================================================
INITIAL               Packet seen for the first time, ``seq_next`` unknown
                      (§4.2.1).  Transient — the entry immediately moves on.
BUILD_UP              Learn an initial estimate of ``seq_next``, which may
                      move *backwards* (§4.2.2, Remark 1).
ACTIVE_MERGE          Merge and flush; ``seq_next`` only moves forward
                      (§4.2.3).
POST_MERGE            OOO queue drained; flow parked on the inactive list and
                      safe to evict (§4.2.4).
LOSS_RECOVERY         An ``ofo_timeout`` fired — a packet is presumed lost;
                      evicting now would cause stalls, so the flow is
                      protected until the hole is filled (§4.2.5).
====================  =======================================================
"""

from __future__ import annotations

import enum


class Phase(enum.Enum):
    """Lifecycle phase of a flow entry; determines which list holds it.

    ``list_name`` — which of the three gro_table lists flows in this phase
    live on ("none" for the transient INITIAL, which is never stored).  It
    is a precomputed member attribute — the table re-homes entries on every
    phase transition, so it sits on the receive hot path.
    """

    INITIAL = ("initial", "none")
    BUILD_UP = ("build_up", "active")
    ACTIVE_MERGE = ("active_merge", "active")
    POST_MERGE = ("post_merge", "inactive")
    LOSS_RECOVERY = ("loss_recovery", "loss_recovery")

    def __new__(cls, value: str, list_name: str):
        member = object.__new__(cls)
        member._value_ = value
        member.list_name = list_name
        return member
