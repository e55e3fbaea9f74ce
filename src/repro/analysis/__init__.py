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

This ``__init__`` is deliberately lazy: ``repro.core`` imports
:mod:`repro.analysis.runtime` at module load, and the sanitizer in turn
needs ``repro.core``'s enums — eager re-exports here would close an import
cycle during interpreter start-up.
"""

from __future__ import annotations

_LAZY = {
    "Finding": ("repro.analysis.lint", "Finding"),
    "lint_source": ("repro.analysis.lint", "lint_source"),
    "lint_file": ("repro.analysis.lint", "lint_file"),
    "lint_tree": ("repro.analysis.lint", "lint_tree"),
    "Policy": ("repro.analysis.policy", "Policy"),
    "policy_for": ("repro.analysis.policy", "policy_for"),
    "Sanitizer": ("repro.analysis.sanitizer", "Sanitizer"),
    "SanitizerError": ("repro.analysis.sanitizer", "SanitizerError"),
    "LEGAL_TRANSITIONS": ("repro.analysis.sanitizer", "LEGAL_TRANSITIONS"),
}

__all__ = sorted(_LAZY) + ["runtime"]


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.analysis' has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value
