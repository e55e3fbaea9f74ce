"""Turn a result store back into figure tables and a machine summary.

The reporter is pure: it reads records (dicts out of the JSONL store),
groups them by experiment, sorts by task index — so output order never
depends on completion order or ``--jobs`` — and asks each experiment's
adapter to rebuild its own ``render()`` table from the stored rows.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Sequence

from repro.campaign import registry
from repro.campaign.spec import CampaignSpec
from repro.harness.reporting import banner


def _group(records: Sequence[Mapping],
           spec: Optional[CampaignSpec]) -> "OrderedDict[str, List[dict]]":
    """Records by experiment, ordered by spec (else first-seen index)."""
    groups: "OrderedDict[str, List[dict]]" = OrderedDict()
    if spec is not None:
        for espec in spec.experiments:
            groups.setdefault(espec.experiment, [])
    for record in sorted(records, key=lambda r: (r.get("index", 0))):
        groups.setdefault(record["experiment"], []).append(record)
    return groups


def render_report(records: Sequence[Mapping],
                  spec: Optional[CampaignSpec] = None) -> str:
    """Per-experiment tables plus a failure section."""
    groups = _group(records, spec)
    parts: List[str] = []
    failures: List[dict] = []
    for experiment, recs in groups.items():
        ok = [r for r in recs if r.get("status") == "ok"]
        failures.extend(r for r in recs if r.get("status") != "ok")
        if not ok:
            continue
        adapter = registry.get(experiment)
        parts.append(banner(f"{experiment}: {adapter.description}"))
        parts.append(adapter.render(ok))
        parts.append("")
    if failures:
        parts.append(banner(f"FAILED TASKS ({len(failures)})"))
        for record in failures:
            point = record.get("point") or {}
            where = ", ".join(f"{k}={v}" for k, v in sorted(point.items()))
            parts.append(
                f"  {record['experiment']}"
                + (f"[{where}]" if where else "")
                + f": {record.get('failure')} — {record.get('error')}")
        parts.append("")
    if not parts:
        return "(no results in store)"
    return "\n".join(parts).rstrip() + "\n"


def summarize(records: Sequence[Mapping]) -> dict:
    """Machine-readable rollup (written by ``campaign report --json``)."""
    experiments: Dict[str, dict] = {}
    for record in records:
        entry = experiments.setdefault(
            record["experiment"],
            {"tasks": 0, "ok": 0, "failed": 0, "rows": 0})
        entry["tasks"] += 1
        if record.get("status") == "ok":
            entry["ok"] += 1
            entry["rows"] += len(record.get("rows") or [])
        else:
            entry["failed"] += 1
    return {
        "campaigns": sorted({r.get("campaign") for r in records
                             if r.get("campaign")}),
        "tasks": len(records),
        "ok": sum(e["ok"] for e in experiments.values()),
        "failed": sum(e["failed"] for e in experiments.values()),
        "experiments": experiments,
    }
