"""``juggler-repro faults`` — drive chaos from the command line.

::

    juggler-repro faults run --plan scripts/specs/chaos_plan.json
    juggler-repro faults run --plan p.json --gro standard --duration-ms 60

``run`` executes one plan against one GRO engine on the NetFPGA rig and
prints the resilience measurements plus the fault-layer counters.  The
resilience matrix (fault kind x intensity x GRO engine) is a grid family
like any other: ``juggler-repro sweep faults_matrix``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from repro.analysis import runtime as sanitize_runtime
from repro.faults.experiments import MatrixParams, run_scenario
from repro.faults.plan import load_plan

_GROS = ("juggler", "standard", "presto")


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
        print("\nsanitizer: zero invariant violations in "
              f"{sanitize_runtime.current().checks_run:,} steps checked")
    if args.json:
        payload = {"plan": plan.to_dict(), "gro": args.gro,
                   "duration_ms": params.duration_ms, "report": report}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"\nreport written to {args.json}")
    return 0


def main(argv) -> int:
    """``juggler-repro faults`` dispatcher."""
    if argv and argv[0] == "run":
        return cmd_run(argv[1:])
    print("usage: juggler-repro faults run --plan FILE [options]\n"
          "  run  execute one fault plan and report its impact\n"
          "the resilience matrix is 'juggler-repro sweep faults_matrix'; "
          "see docs/faults.md", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
