"""repro.faults — deterministic fault injection for the whole stack.

A :class:`~repro.faults.plan.FaultPlan` (declarative JSON, mirroring
``campaign.spec``) names fault *kinds* at every layer — wire loss/
duplication/corruption/jitter/blackholes, switch-queue saturation and
CE-mark storms, NIC ring overflow and paused polling, receiver stalls —
with activation windows on the simulation timeline.  The
:class:`~repro.faults.controller.FaultEngine` expands the plan into
scheduled activations, drawing randomness only from named ``sim.rng``
streams so chaos replays byte-identically.  Window boundaries emit
``fault_injected`` / ``fault_cleared`` trace events and ``faults.*``
metrics.

On top sits the resilience matrix (:mod:`repro.faults.experiments`): a
campaign-schedulable sweep of fault kind × intensity × GRO engine.  See
docs/faults.md and ``juggler-repro faults run|matrix``.
"""
