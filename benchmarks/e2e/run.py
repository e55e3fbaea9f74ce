#!/usr/bin/env python3
"""Whole-cell benchmark: host time per experiment cell, layer by layer.

    python3 benchmarks/e2e/run.py                       # all four workloads
    python3 benchmarks/e2e/run.py --workload fig13_ofo_short --seed 7
    python3 benchmarks/e2e/run.py --workload clos_spray_fault --trace 1
    python3 benchmarks/e2e/run.py --list | --selfcheck | --record | --update-digests

One workload is one fresh interpreter and one fixed universe.  Untraced
(``--trace 0``): after 1 discarded warm-up, for ``--seconds`` the process
alternates one further interpreter launched and timed from spawn to "cell
built" (``setup_s``) with one timed repetition of the cell — fresh ``Engine``,
``gc.collect()`` before, timing ``engine.run_until(stop)`` only.  Traced
(``--trace 1``): 3 untraced repetitions, then the span wrappers of
``spans.py`` go on and the cell is repeated for the rest of ``--seconds``.
Every host time reported is raw wall-clock, the fastest of its n samples;
median, quartiles and n are printed beside it.  Every repetition's simulated
outcome is checked against ``digests.json`` (default seed) or against the
first repetition (other seeds); a mismatch is a failed operation.

The last line a workload prints on standard output is one JSON object:
``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from itertools import islice
from statistics import median, quantiles
from typing import Dict, Iterator, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

try:
    import cells
    import metrics
    import spans
except ImportError as exc:  # a bare copy of this directory has no simulator
    print(f"benchmarks/e2e needs the repository's src/repro beside it: {exc}",
          file=sys.stderr)
    raise SystemExit(2)

DIGESTS_PATH = os.path.join(HERE, "digests.json")
BASELINE_PATH = os.path.join(HERE, "baseline.json")
MANIFEST_PATH = os.path.join(ROOT, "BENCHMARK.json")
#: Chrome traces and call-site tables of traced runs (git-ignored).
OUT_DIR = os.path.join(HERE, "out")

UNTRACED_REFERENCE_REPS = 3
MIN_REPS = 3
#: Spans are kept for every traced repetition; this bounds their memory.
MAX_TRACED_REPS = 6
#: ``--selfcheck`` re-runs this workload at this ``--seed``: a port draw with
#: no pinned digest, on the one cell where the draw changes per-queue load.
UNPINNED_WORKLOAD, UNPINNED_SEED = "fig15_many_flows", 11


def default_seconds() -> int:
    """``run_seconds`` of BENCHMARK.json (what the driver passes)."""
    with open(MANIFEST_PATH) as f:
        return int(json.load(f)["run_seconds"])


# -- correctness --------------------------------------------------------------


class Checker:
    """Compares each repetition's simulated outcome with its reference: the
    pinned one at the default seed, the first repetition's at any other."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.reference: Optional[dict] = None
        self.source = "first repetition"
        if seed == cells.DEFAULT_SEED:
            with open(DIGESTS_PATH) as f:
                self.reference = json.load(f)[workload]["fields"]
            self.source = "digests.json"
        self.attempted = 0
        self.failed = 0
        self.digest = ""

    def check(self, cell: cells.Cell) -> bool:
        """Account one repetition; print what differs when it fails."""
        self.attempted += 1
        fields = cell.digest_fields()
        self.digest = cells.digest_of(fields)
        if self.reference is None:
            self.reference = fields
        diffs = cells.diff_fields(self.reference, fields)
        if diffs:
            self.failed += 1
            print(f"FAILED {self.workload}: simulated outcome differs from "
                  f"{self.source}:", file=sys.stderr)
            for line in diffs:
                print(f"  {line}", file=sys.stderr)
        return not diffs

    def fail(self, why: str) -> None:
        """Account a repetition that raised."""
        self.attempted += 1
        self.failed += 1
        print(f"FAILED {self.workload}: {why}", file=sys.stderr)


# -- measurement --------------------------------------------------------------


def repetitions(workload: cells.Workload, seed: int, checker: Checker,
                rec: Optional[spans.SpanRecorder] = None
                ) -> Iterator[Tuple[float, cells.Cell]]:
    """Build a fresh cell, time its run, check its outcome, again and again;
    yields (raw wall seconds of ``run_until(0 -> stop)``, the cell).  Ends at
    the first repetition that fails: a deterministic cell would only fail
    again."""
    while True:
        try:
            cell = workload.build(seed)
            gc.collect()
            if rec is not None:
                rec.begin_trace()
            t0 = time.perf_counter()
            cell.run()
            wall = time.perf_counter() - t0
        except Exception as exc:  # a failed operation, not a crashed benchmark
            checker.fail(f"{type(exc).__name__}: {exc}")
            return
        if not checker.check(cell):
            return
        yield wall, cell


def setup_launch(name: str, seed: int) -> float:
    """Raw seconds from spawning a fresh interpreter to its cell being built
    (interpreter start + ``import repro...`` + construction)."""
    t0 = time.monotonic()  # CLOCK_MONOTONIC is system-wide on Linux
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--build-only",
         "--workload", name, "--seed", str(seed)],
        stdout=subprocess.PIPE, check=True, text=True)
    return float(done.stdout) - t0


def build_only(name: str, seed: int) -> None:
    """What a setup launch runs: build, say when."""
    cells.WORKLOADS[name].build(seed)
    print(repr(time.monotonic()))


def peak_rss_mb() -> float:
    """Peak resident set of this process.  ``VmHWM`` belongs to this
    process's own address space; ``ru_maxrss`` can inherit the launcher's
    high-water mark across ``exec``, so it is only the fallback."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def spread_of(values: List[float]) -> dict:
    """Min, median, quartiles and n of a sample."""
    if len(values) >= 2:
        q1, _, q3 = quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"min": min(values), "median": median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one workload."""
    workload = cells.WORKLOADS[name]
    checker = Checker(name, seed)
    workload.build(seed).run()  # discarded warm-up
    started = time.perf_counter()
    walls: List[float] = []
    setups: List[float] = []
    cell = None
    reps = repetitions(workload, seed, checker)
    # Launches and repetitions alternate, so both sample the whole window:
    # the box's slow spells last seconds to minutes (see README).
    while (len(walls) < MIN_REPS
           or time.perf_counter() - started < seconds):
        setups.append(setup_launch(name, seed))
        step = next(reps, None)
        if step is None:
            break
        wall, cell = step
        walls.append(wall)
    values: Dict[str, float] = {}
    detail: dict = {"workload": name, "seed": seed, "digest": checker.digest,
                    "checked_against": checker.source}
    if walls:
        values = {
            "cell_wall_s": min(walls),
            "sim_pkts_per_s": cell.rx_pkts() / min(walls),
            "setup_s": min(setups),
            "peak_rss_mb": peak_rss_mb(),
            "goodput_gbps": cell.goodput_gbps(),
        }
        detail.update(
            cell_wall_s=spread_of(walls), setup_s=spread_of(setups),
            rx_pkts=cell.rx_pkts(), events=cell.engine.events_processed,
            simulated_ms=cell.stop_ns / 1e6)
    return {"checker": checker, "values": values, "detail": detail,
            "table": metrics.END_TO_END}


def run_traced(name: str, seed: int, seconds: float) -> dict:
    """The per-layer metrics of one workload: those of its fastest traced
    repetition, so the layers' self times add up to one real run."""
    workload = cells.WORKLOADS[name]
    checker = Checker(name, seed)
    workload.build(seed).run()  # discarded warm-up
    started = time.perf_counter()
    untraced = [wall for wall, _ in islice(
        repetitions(workload, seed, checker), UNTRACED_REFERENCE_REPS)]
    rec = spans.SpanRecorder()
    walls: List[float] = []
    rows: List[Dict[str, float]] = []
    if len(untraced) == UNTRACED_REFERENCE_REPS:
        with rec:
            for wall, cell in repetitions(workload, seed, checker, rec):
                first, last = rec.trace_bounds()[-1]
                row = metrics.per_layer_values(
                    cell, rec, rec.summarise(first, last), rec.ooo_pkts)
                attributed = sum(row[f"{layer}.self_s"]
                                 for layer in spans.LAYERS)
                row["harness.unattributed_share"] = 1.0 - attributed / wall
                row["harness.trace_overhead_x"] = wall / min(untraced)
                rows.append(row)
                walls.append(wall)
                if len(rows) >= MAX_TRACED_REPS or (
                        len(rows) >= MIN_REPS
                        and time.perf_counter() - started >= seconds):
                    break
    values: Dict[str, float] = {}
    detail: dict = {"workload": name, "seed": seed, "digest": checker.digest,
                    "checked_against": checker.source}
    if rows and checker.failed == 0:
        for metric in metrics.simulated_disagreements(rows):
            checker.failed += 1
            print(f"FAILED {name}: {metric} differs between traced "
                  f"repetitions: {[row[metric] for row in rows]}",
                  file=sys.stderr)
        values = rows[walls.index(min(walls))]
        first, last = rec.trace_bounds()[-1]
        detail.update(
            traced_cell_wall_s=spread_of(walls),
            untraced_cell_wall_s=spread_of(untraced),
            spans_per_cell=last - first,
            artifacts=write_artifacts(name, rec))
    return {"checker": checker, "values": values, "detail": detail,
            "table": metrics.PER_LAYER}


def write_artifacts(name: str, rec: spans.SpanRecorder) -> List[str]:
    """Chrome trace of the last traced repetition + schedule call sites."""
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"{name}.trace.json")
    rec.write_chrome_trace(trace_path)
    sites_path = os.path.join(OUT_DIR, f"{name}.schedule_sites.txt")
    reps = len(rec.trace_starts)
    with open(sites_path, "w") as out:
        out.write(f"# schedule/schedule_at/post/post_at calls by call site, "
                  f"summed over {reps} traced repetitions\n")
        out.write(f"{'calls':>10}  site\n")
        for filename, line, function, count in rec.site_table():
            out.write(f"{count:>10}  {os.path.relpath(filename, ROOT)}:"
                      f"{line} {function}\n")
    return [os.path.relpath(p, ROOT) for p in (trace_path, sites_path)]


# -- reporting ----------------------------------------------------------------


def emit(result: dict) -> int:
    """Print the readable table, the detail line and the result line."""
    checker: Checker = result["checker"]
    values = result["values"]
    detail = result["detail"]
    print(f"== {detail['workload']}  seed {detail['seed']}  "
          f"{checker.attempted} repetitions, {checker.failed} failed  "
          f"(outcome checked against {checker.source})")
    for metric in result["table"]:
        if metric.name in values:
            print(f"  {metric.name:<28} {values[metric.name]:>16.6f} "
                  f"{metric.unit:<6} {metric.kind:<9} {metric.better} is "
                  "better")
    for key in ("cell_wall_s", "setup_s", "traced_cell_wall_s",
                "untraced_cell_wall_s"):
        if key in detail:
            s = detail[key]
            print(f"  {key} samples: min {s['min']:.4f} median "
                  f"{s['median']:.4f} q1 {s['q1']:.4f} q3 {s['q3']:.4f} "
                  f"n={s['n']}")
    for path in detail.get("artifacts", ()):
        print(f"  wrote {path}")
    correct = checker.failed == 0 and bool(values)
    print("# detail " + json.dumps(detail, sort_keys=True))
    units = {m.name: m.unit for m in result["table"]}
    print(json.dumps({
        "correct": correct,
        "attempted": max(checker.attempted, 1),
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


def run_child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload in its own fresh interpreter: passes on what it prints
    and returns its result line and detail line, parsed.  An interpreter
    that dies without a result is one failed operation."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    print(done.stdout, end="", flush=True)
    lines = done.stdout.strip().splitlines()
    if len(lines) >= 2 and lines[-2].startswith("# detail "):
        result = json.loads(lines[-1])
        result["detail"] = json.loads(lines[-2][len("# detail "):])
    else:
        print(f"FAILED {name}: the workload's interpreter exited "
              f"{done.returncode} without a result", file=sys.stderr)
        result = {"correct": False, "attempted": 1, "failed": 1,
                  "metrics": {}, "detail": {}}
    return result


def run_all(seed: int, seconds: float, trace: int) -> Dict[str, dict]:
    """Every workload, strictly one after another."""
    return {name: run_child(name, seed, seconds, trace)
            for name in cells.WORKLOADS}


def box() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine()}


def record(seed: int, seconds: float) -> int:
    """Run everything, untraced and traced, and write ``baseline.json``."""
    baseline = {"box": box(), "seed": seed, "run_seconds": seconds,
                "workloads": {}}
    failed = 0
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for name, result in run_all(seed, seconds, trace).items():
            failed += not result["correct"]
            entry = baseline["workloads"].setdefault(name, {})
            entry[key] = result["metrics"]
            entry[f"{key}_detail"] = result["detail"]
    with open(BASELINE_PATH, "w") as f:
        json.dump(baseline, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {os.path.relpath(BASELINE_PATH, ROOT)}")
    return 1 if failed else 0


def list_tables() -> None:
    """Workloads with their reasons; metrics with unit, direction, bound,
    and whether they are host or simulated."""
    print("workloads:")
    for workload in cells.WORKLOADS.values():
        print(f"  {workload.name}\n      {workload.why}")
    for title, table in (("end-to-end metrics (--trace 0)",
                          metrics.END_TO_END),
                         ("per-layer metrics (--trace 1)",
                          metrics.PER_LAYER)):
        print(f"{title}:")
        for m in table:
            bound = f"bound {m.bound:.0%}" if m.bound is not None else ""
            print(f"  {m.name:<28} {m.unit:<6} {m.better:<6} {m.kind:<9} "
                  f"{bound:<10} {m.what}")


def update_digests() -> int:
    """Pin the simulated outcome of every workload at the default seed."""
    pinned = {}
    for name, workload in cells.WORKLOADS.items():
        cell = workload.build(cells.DEFAULT_SEED)
        cell.run()
        fields = cell.digest_fields()
        pinned[name] = {
            "seed": cells.DEFAULT_SEED,
            "sha256": cells.digest_of(fields),
            "goodput_gbps": cell.goodput_gbps(),
            "rx_pkts": cell.rx_pkts(),
            "fields": fields,
        }
        print(f"{name}: {pinned[name]['sha256'][:16]} "
              f"goodput {pinned[name]['goodput_gbps']:.6f} Gb/s")
    with open(DIGESTS_PATH, "w") as f:
        json.dump(pinned, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")
    return 0


def selfcheck(seed: int, seconds: float) -> int:
    """Two sets of runs of the same tree must agree within the bounds."""
    problems: List[str] = []
    first = run_all(seed, seconds, 0)
    second = run_all(seed, seconds, 0)
    for name in cells.WORKLOADS:
        a, b = first[name], second[name]
        for result in (a, b):
            if not result["correct"]:
                problems.append(f"{name}: {result['failed']} of "
                                f"{result['attempted']} repetitions failed")
        for key in ("digest", "rx_pkts", "events"):
            if a["detail"].get(key) != b["detail"].get(key):
                problems.append(f"{name}: {key} differs between the sets: "
                                f"{a['detail'].get(key)} vs "
                                f"{b['detail'].get(key)}")
        for metric in metrics.END_TO_END:
            x = a["metrics"].get(metric.name, {}).get("value")
            y = b["metrics"].get(metric.name, {}).get("value")
            if x is None or y is None:
                problems.append(f"{name}: {metric.name} missing")
                continue
            if metric.kind == metrics.SIMULATED:
                ok, drift = x == y, 0.0
            else:
                worse = (y - x) / x if metric.better == "lower" \
                    else (x - y) / x
                ok, drift = abs(worse) <= metric.bound, worse
            print(f"selfcheck {name:<18} {metric.name:<16} {x:>14.6f} "
                  f"{y:>14.6f}  {drift:+.1%} {'ok' if ok else 'OUT OF BOUND'}")
            if not ok:
                problems.append(f"{name}: {metric.name} {x} vs {y} "
                                f"(bound {metric.bound:.0%})")
    result = run_child(UNPINNED_WORKLOAD, UNPINNED_SEED, seconds, 0)
    if not result["correct"]:
        problems.append(f"{UNPINNED_WORKLOAD} at --seed {UNPINNED_SEED} "
                        "(no pinned digest): repetitions disagree")
    for problem in problems:
        print(f"selfcheck FAILED: {problem}")
    if not problems:
        print("selfcheck ok: two sets agree within every bound; "
              f"{UNPINNED_WORKLOAD} at --seed {UNPINNED_SEED} repeats "
              "exactly")
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(cells.WORKLOADS))
    parser.add_argument("--seed", type=int, default=cells.DEFAULT_SEED,
                        help="draws the flows' source ports; every random "
                             "stream inside a cell is pinned")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "from a span-traced run")
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--update-digests", action="store_true")
    parser.add_argument("--record", action="store_true",
                        help="run everything and write baseline.json")
    parser.add_argument("--build-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.build_only:
        build_only(args.workload, args.seed)
        return 0
    if args.list:
        list_tables()
        return 0
    if args.update_digests:
        return update_digests()
    seconds = args.seconds if args.seconds is not None else default_seconds()
    if args.selfcheck:
        return selfcheck(args.seed, seconds)
    if args.record:
        return record(args.seed, seconds)
    if args.workload is None:
        results = run_all(args.seed, seconds, args.trace)
        return 0 if all(r["correct"] for r in results.values()) else 1
    run = run_traced if args.trace else run_untraced
    return emit(run(args.workload, args.seed, seconds))


if __name__ == "__main__":
    sys.exit(main())
