"""``juggler-repro faults`` — drive chaos from the command line.

::

    juggler-repro faults run --plan scripts/specs/chaos_plan.json
    juggler-repro faults run --plan p.json --gro standard --duration-ms 60
    juggler-repro faults matrix                      # full resilience matrix
    juggler-repro faults matrix --kinds loss,corrupt --intensities 1,2 \\
        --gros juggler,standard --jobs 4 --store matrix.jsonl --json out.json

``run`` executes one plan against one GRO engine on the NetFPGA rig and
prints the resilience measurements plus the fault-layer counters.
``matrix`` routes the resilience-matrix sweep through the campaign
scheduler (parallel, resumable: re-running with the same ``--store``
skips completed cells).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from repro.analysis import runtime as sanitize_runtime
from repro.faults.experiments import (
    MatrixParams,
    gro_factory,
    run_scenario,
)
from repro.faults.plan import load_plan

_GROS = ("juggler", "standard", "presto")


def _csv(text: str, cast=str) -> list:
    return [cast(part.strip()) for part in text.split(",") if part.strip()]


def cmd_run(argv) -> int:
    """One plan, one engine, one report."""
    parser = argparse.ArgumentParser(
        prog="juggler-repro faults run",
        description="Run one fault plan against one GRO engine and report "
                    "goodput/latency/lifecycle impact.",
    )
    parser.add_argument("--plan", required=True, metavar="PATH",
                        help="fault plan JSON (see docs/faults.md)")
    parser.add_argument("--gro", default="juggler", choices=_GROS,
                        help="GRO engine variant (default: juggler)")
    parser.add_argument("--duration-ms", type=int, default=None,
                        help="simulated run length (default: plan-independent "
                             f"{MatrixParams.duration_ms} ms)")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload/fabric seed (default: "
                             f"{MatrixParams.seed})")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the report as JSON")
    args = parser.parse_args(argv)

    try:
        plan = load_plan(args.plan)
    except (OSError, ValueError) as exc:
        print(f"bad fault plan: {exc}", file=sys.stderr)
        return 2
    overrides = {}
    if args.duration_ms is not None:
        overrides["duration_ms"] = args.duration_ms
    if args.seed is not None:
        overrides["seed"] = args.seed
    params = dataclasses.replace(MatrixParams(), **overrides)

    sanitize = sanitize_runtime.current() is not None
    print(f"plan '{plan.name}': {len(plan.faults)} fault(s), "
          f"seed {plan.seed}; engine={args.gro}, "
          f"duration={params.duration_ms} ms, "
          f"sanitizer={'on' if sanitize else 'off'}")
    for spec in plan.faults:
        windows = spec.windows()
        print(f"  {spec.name:20s} {spec.kind:16s} layer={spec.layer:5s} "
              f"windows={len(windows)} first@{windows[0][0] // 1000}us")

    report = run_scenario(params, plan, args.gro)
    print()
    for key, value in report.items():
        print(f"  {key:22s} {value}")
    if sanitize:
        print("\nsanitizer: zero invariant violations")
    if args.json:
        payload = {"plan": plan.to_dict(), "gro": args.gro,
                   "duration_ms": params.duration_ms, "report": report}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"\nreport written to {args.json}")
    return 0


def cmd_matrix(argv) -> int:
    """The resilience-matrix sweep, via the campaign scheduler."""
    import tempfile

    from repro.campaign import (
        CampaignSpec,
        ExperimentSpec,
        ResultStore,
        SchedulerConfig,
        expand,
        render_report,
        run_campaign,
    )

    defaults = MatrixParams()
    parser = argparse.ArgumentParser(
        prog="juggler-repro faults matrix",
        description="Sweep fault kind x intensity x GRO engine; parallel "
                    "and resumable via repro.campaign.",
    )
    parser.add_argument("--kinds", default=",".join(defaults.fault_kinds),
                        help="comma-separated fault kinds")
    parser.add_argument("--intensities",
                        default=",".join(map(str, defaults.intensities)),
                        help="comma-separated intensity levels (1..3)")
    parser.add_argument("--gros", default=",".join(defaults.engines),
                        help="comma-separated GRO engines")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default 1)")
    parser.add_argument("--seed", type=int, default=None,
                        help="campaign root seed (default: the experiment's "
                             "baked-in seed)")
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="result JSONL; reuse to resume (default: temp)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write a JSON summary here")
    args = parser.parse_args(argv)

    grid = {
        "fault_kind": _csv(args.kinds),
        "intensity": _csv(args.intensities, int),
        "engine": _csv(args.gros),
    }
    spec = CampaignSpec(
        name="faults-matrix",
        experiments=(ExperimentSpec("faults_matrix", grid=grid),),
        seed=args.seed,
    )
    try:
        tasks = expand(spec)
    except (KeyError, ValueError) as exc:
        print(f"bad matrix selection: {exc}", file=sys.stderr)
        return 2

    store_path = args.store
    if store_path is None:
        fd, store_path = tempfile.mkstemp(prefix="juggler_faults_",
                                          suffix=".jsonl")
        os.close(fd)
    store = ResultStore(store_path)
    print(f"resilience matrix: {len(tasks)} cell(s), {args.jobs} worker(s); "
          f"results -> {store_path}")
    stats = run_campaign(tasks, store, SchedulerConfig(jobs=max(1, args.jobs)),
                         progress=print)
    print(stats.summary_line(spec.name))
    print()
    print(render_report(store.load(), spec))
    if args.json:
        payload = {
            "spec": spec.to_dict(),
            "planned": stats.planned,
            "skipped": stats.skipped,
            "failed": stats.failed,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"summary written to {args.json}")
    return 0 if stats.failed == 0 else 1


def main(argv) -> int:
    """``juggler-repro faults`` dispatcher."""
    if argv and argv[0] == "run":
        return cmd_run(argv[1:])
    if argv and argv[0] == "matrix":
        return cmd_matrix(argv[1:])
    print("usage: juggler-repro faults {run|matrix} [options]\n"
          "  run     execute one fault plan and report its impact\n"
          "  matrix  sweep fault kind x intensity x GRO engine\n"
          "see docs/faults.md", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
