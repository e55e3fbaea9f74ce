"""Parallel, resumable experiment-sweep campaigns.

The pieces (see docs/campaign.md for the full story):

* :mod:`repro.campaign.spec` — declarative specs expanded into
  fingerprinted :class:`Task` objects with deterministically derived
  per-task seeds (``sim.rng``-style hashing).
* :mod:`repro.campaign.registry` — adapters that let workers drive any
  experiment by name, one grid point per task.
* :mod:`repro.campaign.scheduler` — runs each task in its own child
  process, ``jobs`` at a time; a crash fails only its own task, and
  every outcome is final.
* :mod:`repro.campaign.store` — append-only JSONL result store keyed by
  task fingerprint; what makes ``campaign resume`` skip finished work.
* :mod:`repro.campaign.reporter` — rebuilds the figures' ``render()``
  tables and a machine-readable summary from the store.
"""
