"""Static and runtime enforcement of the reproduction's contracts.

Two halves (docs/analysis.md is the reference):

* :mod:`repro.analysis.lint` — an AST determinism/purity linter with
  per-package policies (:mod:`repro.analysis.policy`): wall-clock reads,
  the global ``random`` stream, ad-hoc RNG construction, mutable default
  arguments, unordered-set iteration and float-contaminated nanosecond
  timestamps all fail ``juggler-repro analyze``.
* :mod:`repro.analysis.sanitizer` — JSAN, a runtime invariant checker for
  the Juggler state machine (Table 1 phase legality, Table 2 flush
  validity, three-list residency, ofo-queue monotonicity, §4.3 eviction
  order), installed process-wide via :mod:`repro.analysis.runtime` or
  ``JUGGLER_SANITIZE=1`` and zero-cost when off.
"""
