"""Command-line entry point: run any reproduced experiment by name.

::

    juggler-repro list
    juggler-repro fig12
    juggler-repro fig20 ablations
    juggler-repro all
    juggler-repro all --jobs 4                   # parallel, via campaign
    juggler-repro trace fig12                    # Chrome trace -> Perfetto
    juggler-repro trace fig12 --format jsonl --events flush,phase
    juggler-repro analyze                        # determinism lint, exit!=0 on findings
    juggler-repro bench --check                  # cell call/event counts == BENCH_counts.json
    juggler-repro faults run --plan chaos.json   # one fault plan, one report
    juggler-repro sweep                          # every family and its axes
    juggler-repro sweep cc_reordering --cc reno,bbr --intensity 3 --jobs 4
    juggler-repro campaign run --spec sweep.json --store out.jsonl --jobs 4
    juggler-repro campaign resume --spec sweep.json --store out.jsonl
    juggler-repro campaign report --store out.jsonl --json summary.json

The experiment catalog itself lives in :mod:`repro.campaign.registry`;
this module is only the dispatcher.  ``--jobs 1`` (the default) runs each
experiment's grid in-process (``repro.experiments.common.run_grid``);
``--jobs N`` or ``--seed`` routes the same selection through the campaign
scheduler, and ``sweep FAMILY`` does the same for one family with its axes
as flags (docs/campaign.md).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict

from repro.campaign.registry import cli_experiments, job_count

#: name -> (runner, description).  A plain mutable dict so tests can
#: monkeypatch stub runners in.
EXPERIMENTS: Dict[str, tuple] = cli_experiments()


def run_trace(argv) -> int:
    """``juggler-repro trace``: run one experiment with tracing enabled.

    Installs a process-wide tracer (see :mod:`repro.trace.runtime`) so every
    engine, NIC queue and TCP endpoint the experiment builds picks it up,
    then dumps the artifact: a Chrome ``trace_event`` file (open it in
    Perfetto or ``chrome://tracing``) or a JSONL event log, plus a metrics
    snapshot.
    """
    from repro.trace import runtime
    from repro.trace.events import EventKind
    from repro.trace.sinks import ChromeTraceSink, JsonlSink
    from repro.trace.tracer import Tracer

    parser = argparse.ArgumentParser(
        prog="juggler-repro trace",
        description="Run one experiment with structured tracing enabled "
                    "and dump the trace artifact.",
    )
    parser.add_argument("experiment", metavar="EXPERIMENT",
                        help="experiment name (see 'juggler-repro list')")
    parser.add_argument("--out", default=None,
                        help="output path (default: trace_<experiment>.<ext>)")
    parser.add_argument("--format", choices=("chrome", "jsonl"),
                        default="chrome",
                        help="chrome trace_event JSON (default) or JSONL")
    parser.add_argument(
        "--events", default="all",
        help="comma-separated event kinds to record "
             f"({', '.join(k.value for k in EventKind)}), or 'all'")
    args = parser.parse_args(argv)

    if args.experiment not in EXPERIMENTS:
        print(f"unknown experiment: {args.experiment}", file=sys.stderr)
        return 2

    if args.events == "all":
        kinds = None
    else:
        try:
            kinds = {EventKind(k.strip()) for k in args.events.split(",")}
        except ValueError as exc:
            print(f"unknown event kind: {exc}", file=sys.stderr)
            return 2

    out = args.out
    if out is None:
        ext = "json" if args.format == "chrome" else "jsonl"
        out = f"trace_{args.experiment}.{ext}"
    sink = ChromeTraceSink(out) if args.format == "chrome" else JsonlSink(out)
    tracer = Tracer([sink], kinds=kinds)

    runner, description = EXPERIMENTS[args.experiment]
    print(f"\n=== {args.experiment}: {description} (tracing) ===")
    started = time.time()
    with runtime.tracing(tracer):
        output = runner()
    tracer.close()
    print(output)
    print(f"({time.time() - started:.1f}s)")

    print(f"\ntrace written to {out} ({tracer.events_emitted} events)")
    for kind, count in sorted(tracer.by_kind.items(),
                              key=lambda kv: kv[0].value):
        print(f"  {kind.value:15s} {count}")
    print("\nmetrics snapshot:")
    print(tracer.metrics.render())
    return 0


def main(argv=None) -> int:
    """Entry point for the ``juggler-repro`` console script."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "trace":
        return run_trace(argv[1:])
    if argv and argv[0] == "campaign":
        from repro.campaign.cli import main as campaign_main

        return campaign_main(argv[1:])
    if argv and argv[0] == "sweep":
        from repro.campaign.cli import sweep_main

        return sweep_main(argv[1:])
    if argv and argv[0] == "analyze":
        from repro.analysis.cli import main as analyze_main

        return analyze_main(argv[1:])
    if argv and argv[0] == "bench":
        from repro.perf.cli import main as bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "faults":
        from repro.faults.cli import main as faults_main

        return faults_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="juggler-repro",
        description="Run reproduced experiments from the Juggler paper "
                    "(EuroSys 2016).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment names (see 'list'), or 'all'",
    )
    parser.add_argument(
        "--jobs", type=job_count, default=1, metavar="N",
        help="tasks run at once; >1 runs the selection through the "
             "campaign scheduler (default 1: serial, in-process)")
    parser.add_argument(
        "--seed", type=int, default=None,
        help="campaign root seed for per-task seed derivation "
             "(implies the campaign path even with --jobs 1)")
    parser.add_argument(
        "--store", default=None, metavar="PATH",
        help="with --jobs/--seed: keep the result JSONL here "
             "(default: a temp file)")
    args = parser.parse_args(argv)

    if not args.experiments or args.experiments == ["list"]:
        print("available experiments:")
        for name, (_, description) in EXPERIMENTS.items():
            print(f"  {name:12s} {description}")
        print("  all          run everything")
        print("run 'juggler-repro trace EXPERIMENT' to record a trace "
              "artifact (see docs/observability.md)")
        print("run 'juggler-repro campaign --help' for parallel, resumable "
              "sweeps (see docs/campaign.md)")
        print("run 'juggler-repro sweep' for every family (these, plus "
              "steering, cc, fabric, faults matrix) with its axes as flags")
        print("run 'juggler-repro faults run --plan FILE' for one fault "
              "plan (see docs/faults.md)")
        return 0

    names = (list(EXPERIMENTS) if args.experiments == ["all"]
             else args.experiments)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2

    if args.jobs > 1 or args.seed is not None:
        from repro.campaign.scheduler import SchedulerConfig
        from repro.campaign.spec import build_default_spec
        from repro.campaign.cli import run_and_report

        return run_and_report(
            build_default_spec(names, seed=args.seed, name="cli"),
            args.store, SchedulerConfig(jobs=args.jobs))

    for name in names:
        runner, description = EXPERIMENTS[name]
        print(f"\n=== {name}: {description} ===")
        started = time.time()
        print(runner())
        print(f"({time.time() - started:.1f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
