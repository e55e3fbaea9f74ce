"""``juggler-repro bench``: count the benchmark cells, check or refresh the
record.

::

    juggler-repro bench                        # count + print, no check
    juggler-repro bench --check                # exit 1 unless BENCH_counts.json holds exactly
    juggler-repro bench --update               # rewrite BENCH_counts.json from this run
    juggler-repro bench --bench cc_bbr_inorder # one cell (repeatable)
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from repro.perf import counts


def _print_reading(name: str, reading: dict) -> None:
    """Events, calls per package under ``repro/``, the five busiest sites."""
    packages: Counter = Counter()
    for site, n in reading["calls"].items():
        packages[site.split("/")[0].split(":")[0]] += n
    print(f"{name}: {reading['events']:,} events, "
          f"{sum(packages.values()):,} calls")
    print("  " + "  ".join(f"{package} {n:,}"
                           for package, n in sorted(packages.items())))
    busiest = sorted(reading["calls"].items(), key=lambda kv: (-kv[1], kv[0]))
    for site, n in busiest[:5]:
        print(f"  {n:>10,}  {site}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="juggler-repro bench",
        description="Count Python calls and engine events in the benchmark "
                    "cells (see docs/performance.md).",
    )
    parser.add_argument("--bench", action="append", metavar="NAME",
                        help="count only this cell (repeatable); "
                             "default: all four")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless every count equals "
                             f"{counts.RECORD.name}")
    parser.add_argument("--update", action="store_true",
                        help=f"rewrite {counts.RECORD.name} from this run")
    args = parser.parse_args(argv)

    names = args.bench or list(counts.CELLS)
    unknown = [name for name in names if name not in counts.CELLS]
    if unknown:
        print(f"unknown cell(s): {', '.join(unknown)}; "
              f"known: {', '.join(counts.CELLS)}", file=sys.stderr)
        return 2

    measured = {}
    for name in names:
        measured[name] = counts.measure(name)
        _print_reading(name, measured[name])

    recorded = counts.load()
    if args.update:
        counts.write({**{name: recorded[name] for name in counts.CELLS
                         if name in recorded}, **measured})
        print(f"record updated: {counts.RECORD}")
        return 0
    if not args.check:
        return 0

    if args.bench:  # a subset holds only its own rows
        recorded = {name: recorded[name] for name in names if name in recorded}
    rose, fell = counts.compare(recorded, measured)
    for title, changes in (("rose", rose), ("fell", fell)):
        if changes:
            print(f"\n{title}:")
            for cell, site, before, after in changes:
                print(f"  {cell}  {site}: {before:,} -> {after:,}")
    if rose:
        print(f"\nFAIL: {len(rose)} count(s) rose above "
              f"{counts.RECORD.name}", file=sys.stderr)
    if fell:
        print(f"\nFAIL: {len(fell)} count(s) fell: run "
              "'juggler-repro bench --update' and commit "
              f"{counts.RECORD.name}", file=sys.stderr)
    if rose or fell:
        return 1
    print(f"\nOK: {len(measured)} cell(s) equal {counts.RECORD.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
