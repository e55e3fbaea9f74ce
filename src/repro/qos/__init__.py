"""Dynamic packet prioritisation — the bandwidth-guarantee system of §2.1.

A purely end-host, passive mechanism: mark each packet high priority with
probability ``p`` and adapt ``p ← p + α(Rt − Rm)``.  No hypervisor rate
limiting, no switch changes beyond two strict-priority queues — but it only
works if the receiver stack tolerates the reordering that mixing priorities
induces, which is where Juggler comes in (Figures 1, 17, 18).
"""
