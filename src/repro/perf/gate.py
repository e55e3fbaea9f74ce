"""The perf-regression gate: ``BENCH_core.json`` baseline handling.

The committed baseline records, per bench, the value a healthy checkout
produces.  ``check_against_baseline`` compares a fresh run against it with
a relative tolerance band: a rate bench fails when it drops more than
``tolerance`` below baseline, a footprint bench when it grows more than
``tolerance`` above it.  Improvements never fail — they are the point —
but the gate reports them so the baseline can be refreshed
(``juggler-repro bench --update``).
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.perf.bench import BenchResult

#: Default relative band; generous because CI machines are noisy.
DEFAULT_TOLERANCE = 0.30

#: Default baseline location: the repo root.
BASELINE_NAME = "BENCH_core.json"


def default_baseline_path() -> Path:
    """``BENCH_core.json`` at the repo root (three levels above here)."""
    return Path(__file__).resolve().parents[3] / BASELINE_NAME


@dataclass
class GateFinding:
    """One bench's verdict against the baseline."""

    name: str
    status: str  # "ok" | "improved" | "regressed" | "new" | "missing"
    value: Optional[float]
    baseline: Optional[float]
    ratio: Optional[float]  # value / baseline

    def line(self) -> str:
        if self.baseline is None or self.value is None or self.ratio is None:
            return f"  {self.name:30s} {self.status}"
        return (f"  {self.name:30s} {self.value:>14,.0f} vs "
                f"{self.baseline:>14,.0f}  ({self.ratio:.2f}x)  "
                f"{self.status}")


def load_baseline(path: Optional[Path] = None) -> dict:
    """Read the committed baseline (empty skeleton when absent)."""
    path = default_baseline_path() if path is None else path
    if not path.exists():
        return {"benchmarks": {}}
    with open(path) as handle:
        return json.load(handle)


def write_baseline(
    results: Dict[str, BenchResult],
    path: Optional[Path] = None,
    *,
    pre_pr: Optional[dict] = None,
    note: str = "",
) -> Path:
    """Record ``results`` as the new committed baseline.

    ``pre_pr`` (numbers measured before an optimization pass) is kept
    verbatim when given, or carried over from the existing file, so the
    before/after record survives refreshes.
    """
    path = default_baseline_path() if path is None else path
    existing = load_baseline(path)
    record = {
        "meta": {
            "python": platform.python_version(),
            "note": note or existing.get("meta", {}).get("note", ""),
        },
        "benchmarks": {
            name: {
                "value": round(r.value, 2),
                "unit": r.unit,
                "higher_is_better": r.higher_is_better,
                "rounds": r.rounds,
            }
            for name, r in sorted(results.items())
        },
    }
    kept_pre = pre_pr if pre_pr is not None else existing.get("pre_pr")
    if kept_pre:
        record["pre_pr"] = kept_pre
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def check_against_baseline(
    results: Dict[str, BenchResult],
    baseline: dict,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[GateFinding]:
    """Compare a fresh run against the committed baseline."""
    findings: List[GateFinding] = []
    recorded = baseline.get("benchmarks", {})
    for name, result in sorted(results.items()):
        entry = recorded.get(name)
        if entry is None:
            findings.append(GateFinding(name, "new", result.value,
                                        None, None))
            continue
        base = float(entry["value"])
        ratio = result.value / base if base else float("inf")
        if result.higher_is_better:
            if ratio < 1.0 - tolerance:
                status = "regressed"
            elif ratio > 1.0 + tolerance:
                status = "improved"
            else:
                status = "ok"
        else:
            if ratio > 1.0 + tolerance:
                status = "regressed"
            elif ratio < 1.0 - tolerance:
                status = "improved"
            else:
                status = "ok"
        findings.append(GateFinding(name, status, result.value, base, ratio))
    for name in recorded:
        if name not in results:
            findings.append(GateFinding(name, "missing", None,
                                        float(recorded[name]["value"]),
                                        None))
    return findings


def regressions(findings: List[GateFinding]) -> List[GateFinding]:
    """The findings that should fail the gate."""
    return [f for f in findings if f.status in ("regressed", "missing")]
