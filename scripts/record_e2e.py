#!/usr/bin/env python3
"""Append this tree's whole-cell numbers to the committed trajectory.

    python3 scripts/record_e2e.py                       # this tree, HEAD's hash
    python3 scripts/record_e2e.py --root /path/to/parent/checkout
    python3 scripts/record_e2e.py --commit d70b858+wip --seconds 8
    python3 scripts/record_e2e.py --pairs 10 --against /path/to/parent/checkout
    python3 scripts/record_e2e.py --pairs 10 --against PARENT --seed 7 --seed 23

Shells out to ``benchmarks/e2e/run.py`` of ``--root`` — once untraced, once
with ``--trace 1`` — per workload, and appends one JSON line per cell to
``--out`` (``BENCH_e2e.jsonl`` at this repository's root): commit, seed,
``cell_wall_s`` min/median/quartiles/n, ``setup_s``, ``peak_rss_mb``,
``goodput_gbps``, ``sim.events_per_pkt``, ``fabric.us_per_hop``,
``sim.us_per_event`` and every layer's ``self_s``.  Host numbers are those of
the box that ran it (recorded in the line); lines compare within one box.
With ``--against`` the untraced run becomes ``--pairs`` runs alternating
between the two checkouts (each pair started by the other tree); both trees
get a line whose ``cell_wall_s`` spreads the per-run values, and this tree's
carries ``pairs``: n, how many pairs it was ahead in, the median and
quartiles of its per-pair ``cell_wall_s`` ratio to the parent, both
trees' per-run seconds in run order, and the ``verdict`` (``better``,
``worse`` or ``unresolved``; see :func:`pairs_of`).  ``--against`` must be another
checkout than ``--root`` (compared after resolving both paths).  ``--seed``
repeats: each seed records its own lines, one after the other.
The benchmark itself is only read, never written: ``baseline.json`` is
refreshed by ``run.py --record`` in ``benchmark``-tagged PRs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from statistics import median, quantiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

END_TO_END = ("setup_s", "peak_rss_mb", "goodput_gbps")
PER_LAYER = ("sim.events", "sim.events_per_pkt", "sim.us_per_event",
             "fabric.us_per_hop", "harness.trace_overhead_x")


def run_workload(root: str, name: str, seed: int, seconds: float,
                 trace: int) -> tuple[dict, dict]:
    """(metric name -> value, detail) of one ``run.py`` workload run."""
    done = subprocess.run(
        [sys.executable, os.path.join(root, "benchmarks", "e2e", "run.py"),
         "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{name} (--trace {trace}): {result['failed']} of "
                         f"{result['attempted']} repetitions failed")
    detail = json.loads(lines[-2].removeprefix("# detail "))
    return {k: v["value"] for k, v in result["metrics"].items()}, detail


def spread_of(values: list) -> dict:
    """Min, median, quartiles and n of a sample."""
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"min": min(values), "median": median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def pairs_of(parent_s: list, change_s: list) -> dict:
    """The change's ``cell_wall_s`` over the parent's, pair by pair: how many
    pairs it is ahead in, the ratio's spread, and the ``verdict`` — ``better``
    when it is ahead in at least 9 of 10 pairs and its median undercuts the
    parent's by more than the parent's quartile distance, ``worse`` for the
    mirror, ``unresolved`` otherwise."""
    ratios = [c / p for c, p in zip(change_s, parent_s)]
    q, parent = spread_of(ratios), spread_of(parent_s)
    ahead, behind = sum(r < 1 for r in ratios), sum(r > 1 for r in ratios)
    margin = parent["q3"] - parent["q1"]
    gap = parent["median"] - median(change_s)
    if 10 * ahead >= 9 * q["n"] and gap > margin:
        verdict = "better"
    elif 10 * behind >= 9 * q["n"] and -gap > margin:
        verdict = "worse"
    else:
        verdict = "unresolved"
    return {"n": q["n"], "ahead": ahead, "ratio_median": q["median"],
            "ratio_q1": q["q1"], "ratio_q3": q["q3"],
            "parent_s": parent_s, "change_s": change_s, "verdict": verdict}


def head_of(root: str) -> str:
    return subprocess.run(
        ["git", "-C", root, "rev-parse", "--short", "HEAD"],
        stdout=subprocess.PIPE, text=True, check=True).stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=ROOT,
                        help="checkout whose benchmarks/e2e/run.py to run")
    parser.add_argument("--commit", help="label (default: --root's HEAD)")
    parser.add_argument("--against", metavar="CHECKOUT",
                        help="parent checkout to alternate --pairs runs with")
    parser.add_argument("--pairs", type=int, default=10,
                        help="alternating runs per tree with --against")
    parser.add_argument("--seed", type=int, action="append",
                        help="flow-port draw (repeatable; default: 7)")
    parser.add_argument("--seconds", type=float,
                        help="per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--workload", action="append",
                        help="only this workload (repeatable; default: all)")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_e2e.jsonl"))
    args = parser.parse_args()
    if args.against and (os.path.realpath(args.against)
                         == os.path.realpath(args.root)):
        parser.error(f"--against {args.against} is the --root checkout; "
                     "pairs need two trees")
    for seed in args.seed or [7]:
        record(args, seed)
    return 0


def record(args: argparse.Namespace, seed: int) -> None:
    """Run and append every selected workload's lines at one seed."""
    with open(os.path.join(args.root, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    seconds = args.seconds if args.seconds is not None \
        else manifest["run_seconds"]
    trees = [(args.root, args.commit or head_of(args.root))]
    if args.against:
        trees.insert(0, (args.against, head_of(args.against)))
    parent = args.against  # None: single runs, no pairs
    box = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "machine": platform.machine()}
    for workload in manifest["workloads"]:
        name = workload["name"]
        if args.workload and name not in args.workload:
            continue
        # Untraced runs per tree: one, or --pairs of them, each pair started
        # by the other tree.
        runs: dict = {root: [] for root, _ in trees}
        for i in range(args.pairs if parent else 1):
            for root, _ in (trees if i % 2 == 0 else trees[::-1]):
                runs[root].append(
                    run_workload(root, name, seed, seconds, 0))
        for root, commit in trees:
            ends = [end for end, _ in runs[root]]
            layer, _ = run_workload(root, name, seed, seconds, 1)
            walls = [end["cell_wall_s"] for end in ends]
            line = {"commit": commit, "workload": name, "seed": seed,
                    "run_seconds": seconds, "box": box,
                    "cell_wall_s": spread_of(walls) if parent
                    else runs[root][0][1]["cell_wall_s"]}
            if parent and root != parent:
                parent_s = [end["cell_wall_s"] for end, _ in runs[parent]]
                line["pairs"] = {**pairs_of(parent_s, walls), "seed": seed,
                                 "against": trees[0][1]}
            line.update((key, median(end[key] for end in ends))
                        for key in END_TO_END)
            line.update((key, layer[key]) for key in PER_LAYER)
            line["self_s"] = {key[:-len(".self_s")]: value
                              for key, value in layer.items()
                              if key.endswith(".self_s")}
            with open(args.out, "a") as out:
                out.write(json.dumps(line, sort_keys=True) + "\n")
            spread = line["cell_wall_s"]
            largest = sorted(line["self_s"].items(),
                             key=lambda kv: -kv[1])[:3]
            print(f"{commit} {name}: cell_wall_s min {spread['min']:.4f} "
                  f"median {spread['median']:.4f} n={spread['n']}, traced "
                  "self_s "
                  + " ".join(f"{layer} {self_s:.3f}"
                             for layer, self_s in largest)
                  + (" pairs {ahead}/{n} ratio {ratio_median:.3f} "
                     "[{ratio_q1:.3f}, {ratio_q3:.3f}] {verdict}".format(
                         **line["pairs"])
                     if "pairs" in line else ""), flush=True)


if __name__ == "__main__":
    raise SystemExit(main())
