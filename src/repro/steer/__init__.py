"""repro.steer — the multi-core receive path's steering stage.

Which RX queue does a wire packet land on?  Juggler (§4) assumes the NIC
answers that question *stably* — one flow, one queue, private GRO state —
but real NICs expose several answers with very different failure modes:

* :class:`RssSteering` — stateless Toeplitz-style hashing; stable, and the
  byte-identical default (the pre-steering NIC demux, now a policy).
* :class:`FlowDirectorSteering` — Intel ATR modelled faithfully enough to
  reproduce its documented pathology: sampled rule installs lag affinity
  changes, so a migrating flow's in-flight packets straddle two queues and
  arrive at TCP reordered with zero fabric misbehaviour.
* :class:`StaticAffinitySteering` — explicit pins, the control arm.

The policies steer into ``Nic.queues`` (repro.nic.nic): one RX queue per
core, each with a private GRO shard and per-shard ``steer.*`` metrics.  The
``steering_churn`` fault kind (repro.faults) drives ``rebalance()`` from
fault plans, and the ``fdir_reordering`` experiment family (repro.
experiments.fdir_reordering) sweeps policy x flow count x churn x engine.
"""
