"""``juggler-repro campaign run|resume|report`` and ``juggler-repro sweep``.

``run`` expands a spec (from ``--spec FILE`` or ``--experiments a,b,c``)
into tasks and schedules them; it refuses a non-empty store so completed
results cannot be silently appended to twice.  ``resume`` is the same
command minus that guard: tasks whose fingerprints already sit in the
store as ``ok`` are skipped.  ``report`` re-renders the figure tables
from the store alone — no re-execution — and can emit a machine-readable
JSON summary.

``sweep <family>`` is the same machinery without a spec file: its
``--<axis>`` flags are generated from the family module's ``POINT_AXES``
and fill one experiment's ``grid``.  Every command that runs tasks goes
through :func:`run_and_report`.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import tempfile
from typing import Optional

from repro.campaign import registry
from repro.campaign.reporter import render_report, summarize
from repro.campaign.scheduler import SchedulerConfig, run_campaign
from repro.campaign.spec import (
    CampaignSpec,
    ExperimentSpec,
    build_default_spec,
    expand,
    load_spec,
)
from repro.campaign.store import ResultStore


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", default=None,
                        help="campaign spec JSON file (see docs/campaign.md)")
    parser.add_argument("--experiments", default=None, metavar="A,B,C",
                        help="comma-separated experiment names (default "
                             "grids) instead of --spec")
    parser.add_argument("--store", required=True,
                        help="result store (append-only JSONL)")
    parser.add_argument("--name", default=None,
                        help="campaign name override")
    parser.add_argument("--jobs", type=registry.job_count, default=1,
                        help="tasks run at once, each in its own process "
                             "(default 1)")
    parser.add_argument("--seed", type=int, default=None,
                        help="root seed for per-task seed derivation "
                             "(default: keep each experiment's own seed)")
    parser.add_argument("--trace", choices=("jsonl",), default=None,
                        help="per-task tracing (task processes inherit "
                             "the repro.trace runtime)")
    parser.add_argument("--trace-dir", default="campaign_traces",
                        help="directory for per-task trace files")
    parser.add_argument("--report", action="store_true",
                        help="print the full report after the run")


def _build_spec(args) -> CampaignSpec:
    if bool(args.spec) == bool(args.experiments):
        raise SystemExit("exactly one of --spec or --experiments required")
    if args.spec:
        spec = load_spec(args.spec)
    else:
        names = [n.strip() for n in args.experiments.split(",") if n.strip()]
        unknown = [n for n in names
                   if n not in registry.names(include_hidden=True)]
        if unknown:
            raise SystemExit(f"unknown experiment(s): {', '.join(unknown)}")
        spec = build_default_spec(names)
    if args.name is not None:
        spec = CampaignSpec(name=args.name, experiments=spec.experiments,
                            seed=spec.seed)
    if args.seed is not None:
        spec = CampaignSpec(name=spec.name, experiments=spec.experiments,
                            seed=args.seed)
    return spec


def run_and_report(spec: CampaignSpec, store_path: Optional[str],
                   config: SchedulerConfig, *, report: bool = True,
                   json_path: Optional[str] = None) -> int:
    """Expand ``spec``, run what ``store_path`` lacks, print the outcome.

    The one expand -> store -> schedule -> summary -> tables sequence
    behind ``campaign run|resume``, ``sweep`` and ``all --jobs/--seed``.
    ``store_path`` None keeps the results in a fresh temp file.  Exit
    status: 0 all ok, 1 some task failed, 2 the spec does not expand.
    """
    try:
        tasks = expand(spec)
    except (ValueError, KeyError) as exc:
        print(f"bad spec: {exc}", file=sys.stderr)
        return 2
    if store_path is None:
        fd, store_path = tempfile.mkstemp(prefix="juggler_campaign_",
                                          suffix=".jsonl")
        os.close(fd)
    store = ResultStore(store_path)
    print(f"campaign '{spec.name}': {len(tasks)} task(s), "
          f"jobs={config.jobs}, store={store_path}")
    stats = run_campaign(tasks, store, config, progress=print)
    print(stats.summary_line(spec.name))
    if report:
        print()
        print(render_report(store.load(), spec))
    if json_path:
        payload = {"spec": spec.to_dict(), "planned": stats.planned,
                   "skipped": stats.skipped, "failed": stats.failed}
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"summary written to {json_path}")
    return 0 if stats.failed == 0 else 1


def _cmd_run(args, resume: bool) -> int:
    spec = _build_spec(args)
    if not resume and ResultStore(args.store).exists_nonempty():
        print(f"store {args.store} already has results; use "
              f"'campaign resume' to continue it (or pick a new path)",
              file=sys.stderr)
        return 2
    config = SchedulerConfig(
        jobs=args.jobs, trace=args.trace,
        trace_dir=args.trace_dir if args.trace else None)
    return run_and_report(spec, args.store, config, report=args.report)


def _cmd_report(args) -> int:
    store = ResultStore(args.store)
    records = store.load()
    spec = load_spec(args.spec) if args.spec else None
    print(render_report(records, spec))
    if args.json:
        summary = summarize(records)
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"summary written to {args.json}")
    return 0


def main(argv) -> int:
    """Entry point for the ``campaign`` subcommand."""
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    parser = argparse.ArgumentParser(
        prog="juggler-repro campaign",
        description="Parallel, resumable experiment sweeps with a durable "
                    "result store (see docs/campaign.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a campaign into a fresh store")
    _add_run_args(run_p)
    resume_p = sub.add_parser(
        "resume", help="continue a campaign, skipping completed tasks")
    _add_run_args(resume_p)
    report_p = sub.add_parser(
        "report", help="render tables + summary from an existing store")
    report_p.add_argument("--store", required=True)
    report_p.add_argument("--spec", default=None,
                          help="spec file (orders the report sections)")
    report_p.add_argument("--json", default=None, metavar="PATH",
                          help="also write a machine-readable summary")

    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args, resume=False)
    if args.command == "resume":
        return _cmd_run(args, resume=True)
    return _cmd_report(args)


def _bool(text: str) -> bool:
    """``true``/``false`` (any case) as a bool; anything else is invalid."""
    try:
        return {"true": True, "false": False}[text.lower()]
    except KeyError:
        raise ValueError(text) from None


def _csv_of(cast):
    """An argparse ``type``: ``"a, b,c"`` -> ``[cast(a), cast(b), cast(c)]``."""
    name, cast = cast.__name__, (_bool if cast is bool else cast)

    def parse(text: str) -> list:
        return [cast(part.strip()) for part in text.split(",")
                if part.strip()]
    # argparse words its "invalid ... value" error with the type's name.
    parse.__name__ = f"{name} list"
    return parse


def _list_families() -> str:
    lines = ["usage: juggler-repro sweep FAMILY [--<axis> a,b,c ...] "
             "[--jobs N] [--seed S] [--store PATH] [--json PATH]",
             "families and their axes (paired arms marked *):"]
    for adapter in registry.ADAPTERS.values():
        axes = ", ".join(
            axis + ("*" if axis in adapter.paired_axes else "")
            for axis in adapter.axis_names())
        lines.append(f"  {adapter.name:16s} {axes}")
    lines.append("an axis left out keeps its default values; same --store "
                 "resumes (see docs/campaign.md)")
    return "\n".join(lines)


def sweep_main(argv) -> int:
    """``juggler-repro sweep [FAMILY ...]``: one family, axes as flags."""
    if not argv or argv[0] in ("-h", "--help"):
        print(_list_families())
        return 0
    family = argv[0]
    adapter = registry.ADAPTERS.get(family)
    if adapter is None:
        print(f"unknown sweep family: {family}\n{_list_families()}",
              file=sys.stderr)
        return 2

    parser = argparse.ArgumentParser(
        prog=f"juggler-repro sweep {family}",
        description=f"{adapter.description}; parallel and resumable via "
                    f"repro.campaign.")
    for axis, values in adapter.default_grid().items():
        cast = type(values[0])
        parser.add_argument(
            f"--{axis}", default=None, metavar="A,B,C", type=_csv_of(cast),
            help=f"comma-separated {cast.__name__} values (default "
                 f"{','.join(map(str, values))})")
    parser.add_argument("--jobs", type=registry.job_count, default=1,
                        metavar="N", help="tasks run at once (default 1)")
    parser.add_argument("--seed", type=int, default=None,
                        help="campaign root seed (default: the family's "
                             "baked-in seed)")
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="result JSONL; reuse to resume (default: temp)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write a JSON summary here")
    args = parser.parse_args(argv[1:])

    chosen = vars(args)
    grid = {axis: chosen[axis] for axis in adapter.axis_names()
            if chosen[axis] is not None}
    spec = CampaignSpec(name=family, seed=args.seed,
                        experiments=(ExperimentSpec(family, grid=grid),))
    return run_and_report(spec, args.store,
                          SchedulerConfig(jobs=args.jobs),
                          json_path=args.json)
