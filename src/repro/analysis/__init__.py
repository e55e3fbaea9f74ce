"""Static and runtime enforcement of the reproduction's contracts.

Two halves (docs/analysis.md is the reference):

* :mod:`repro.analysis.lint` — an AST determinism/purity linter with
  per-package policies (:mod:`repro.analysis.policy`): wall-clock reads,
  the global ``random`` stream, ad-hoc RNG construction, mutable default
  arguments, unordered-set iteration and float-contaminated nanosecond
  timestamps all fail ``juggler-repro analyze``.
* :mod:`repro.analysis.sanitizer` — JSAN, which runs
  :mod:`repro.analysis.spec` (Tables 1-2 and §4.3 of the paper) in lockstep
  with every Juggler engine and stops at the first step they differ;
  installed via :mod:`repro.analysis.runtime` or ``JUGGLER_SANITIZE=1``,
  nothing is wrapped when off.
"""
