"""Per-package determinism policies and the pragma escape hatch.

The reproduction's contracts are not uniform across the tree.  The
simulated stack (``sim``, ``core``, ``tcp``, ``nic``, ``fabric``, ``qos``,
``cpu``, ``workloads``) must be byte-for-byte deterministic: campaign
fingerprints and derived seeds are only meaningful if no module in those
packages reads the wall clock, draws from the global ``random`` stream, or
lets float rounding creep into integer-nanosecond timestamps.  The driver
layers (``campaign``, ``harness``, the CLI) legitimately measure host
elapsed time and may relax some rules.

A finding can always be silenced *in place* with a justified pragma::

    started = time.perf_counter()  # det: allow(wall-clock) -- host-side elapsed display only

The justification (everything after ``--``) is mandatory; a pragma without
one is itself a finding.  This keeps every exception auditable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional

#: Rule identifiers, stable across releases (used in pragmas and docs).
WALL_CLOCK = "wall-clock"
GLOBAL_RANDOM = "global-random"
RAW_RNG = "raw-rng"
MUTABLE_DEFAULT = "mutable-default"
SET_ITERATION = "set-iteration"
FLOAT_NS = "float-ns"
ID_ORDERING = "id-ordering"
UNORDERED_POP = "unordered-pop"
BAD_PRAGMA = "bad-pragma"

#: Every rule the determinism linter knows.  ``bad-pragma`` is meta and
#: always on.
ALL_RULES = frozenset({
    WALL_CLOCK,
    GLOBAL_RANDOM,
    RAW_RNG,
    MUTABLE_DEFAULT,
    SET_ITERATION,
    FLOAT_NS,
    ID_ORDERING,
    UNORDERED_POP,
})

RULE_DESCRIPTIONS = {
    WALL_CLOCK: "wall-clock read (time.time/monotonic/perf_counter, "
                "datetime.now, ...) — use the simulation clock",
    GLOBAL_RANDOM: "global random stream (random.random(), random.choice(), "
                   "from random import ...) — route through repro.sim.rng",
    RAW_RNG: "direct random.Random(...) construction — derive a named "
             "stream from repro.sim.rng.RngRegistry instead",
    MUTABLE_DEFAULT: "mutable default argument (list/dict/set) — shared "
                     "across calls, a classic state leak",
    SET_ITERATION: "iteration over an unordered set feeds results — wrap "
                   "in sorted() to fix the order",
    FLOAT_NS: "float arithmetic assigned to an integer-nanosecond "
              "timestamp — use // or int(round(...))",
    ID_ORDERING: "id()-based key or ordering — object addresses vary "
                 "across runs; key by a stable field or index",
    UNORDERED_POP: "popitem()/set-pop removes an arbitrary element — "
                   "pop a deterministic key or sort first",
    BAD_PRAGMA: "malformed det: pragma (justification after '--' is "
                "mandatory)",
}


@dataclass(frozen=True)
class Policy:
    """The rule set one package is linted under."""

    name: str
    rules: FrozenSet[str] = field(default_factory=lambda: ALL_RULES)

    def enabled(self, rule: str) -> bool:
        return rule in self.rules or rule == BAD_PRAGMA


#: Everything on: the simulated stack, where determinism is load-bearing.
STRICT = Policy("strict", ALL_RULES)

#: Experiments and tracing: deterministic, but they render float metrics
#: from ns quantities all the time, so the float-ns heuristic is off.
STANDARD = Policy("standard", ALL_RULES - {FLOAT_NS})

#: Driver code that legitimately measures host time (campaign scheduler
#: timing, CLI progress display, harness reporting).
RELAXED = Policy("relaxed", frozenset({GLOBAL_RANDOM, MUTABLE_DEFAULT,
                                       RAW_RNG}))

#: Package (directory under ``repro/``) -> policy.  Single modules at the
#: package root (``cli.py``) are keyed by module name.
PACKAGE_POLICIES: Dict[str, Policy] = {
    "sim": STRICT,
    "core": STRICT,
    "tcp": STRICT,
    "cc": STRICT,
    "nic": STRICT,
    "fabric": STRICT,
    "qos": STRICT,
    "cpu": STRICT,
    "workloads": STRICT,
    "net": STRICT,
    "sctp": STRICT,
    "experiments": STANDARD,
    "trace": STANDARD,
    "analysis": STANDARD,
    "perf": STANDARD,
    "campaign": RELAXED,
    "harness": RELAXED,
    "cli": RELAXED,
}

#: Module-level exemptions: (package, module) pairs allowed specific rules
#: wholesale because they *implement* the sanctioned alternative.
MODULE_EXEMPTIONS: Dict[str, FrozenSet[str]] = {
    # RngRegistry is the one place that may build random.Random streams.
    "repro/sim/rng.py": frozenset({RAW_RNG}),
}


def policy_for(path: str) -> Policy:
    """Resolve the policy for a source file path.

    Matches the first ``repro/<package>/`` (or ``repro/<module>.py``)
    component; anything that cannot be attributed to a known package —
    including files outside the tree, such as test fixtures — is linted
    under the strict policy.
    """
    norm = path.replace("\\", "/")
    match = re.search(r"repro/([A-Za-z_]\w*)(?:/|\.py$)", norm)
    if match:
        policy = PACKAGE_POLICIES.get(match.group(1))
        if policy is not None:
            return policy
    return STRICT


def module_exemptions(path: str) -> FrozenSet[str]:
    """Rules waived wholesale for this module (see MODULE_EXEMPTIONS)."""
    norm = path.replace("\\", "/")
    for suffix, rules in MODULE_EXEMPTIONS.items():
        if norm.endswith(suffix):
            return rules
    return frozenset()


#: Comment pragma: ``det: allow(<rule>)``, then ``--`` and a justification.
_PRAGMA_RE = re.compile(
    r"#\s*det:\s*allow\(\s*([a-z-]+)\s*\)\s*(?:--\s*(.*\S))?")


@dataclass(frozen=True)
class Pragma:
    """One parsed ``det: allow`` pragma."""

    rule: str
    justification: Optional[str]
    line: int


def parse_pragmas(source: str) -> Dict[int, Pragma]:
    """Extract ``det: allow`` pragmas, keyed by 1-based line number."""
    pragmas: Dict[int, Pragma] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(text)
        if match:
            pragmas[lineno] = Pragma(match.group(1), match.group(2), lineno)
    return pragmas
