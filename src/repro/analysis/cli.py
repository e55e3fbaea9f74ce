"""``juggler-repro analyze`` — lint the tree, exit nonzero on findings.

::

    juggler-repro analyze                      # lint src/repro
    juggler-repro analyze path/to/file.py dir/ # lint explicit targets
    juggler-repro analyze --format json        # machine-readable findings
    juggler-repro analyze --rules              # print the rule catalog

Every file goes through the determinism linter
(:mod:`repro.analysis.lint`).  Exit status: 0 clean, 1 findings, 2 usage
error.  CI runs this alongside ruff and mypy in the ``analysis`` job
(see ``.github/workflows/ci.yml``); the per-package policies and the
pragma syntax are documented in ``docs/analysis.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional


def default_tree() -> str:
    """The installed ``repro`` package directory — lintable from any cwd."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def main(argv: Optional[List[str]] = None) -> int:
    from repro.analysis.lint import iter_python_files, lint_file
    from repro.analysis.policy import RULE_DESCRIPTIONS, policy_for

    parser = argparse.ArgumentParser(
        prog="juggler-repro analyze",
        description="Determinism / purity linter for the reproduction "
                    "tree (docs/analysis.md).",
    )
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: the repro package)")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="finding output format (default: text)")
    parser.add_argument(
        "--rules", action="store_true",
        help="print the rule catalog and exit")
    args = parser.parse_args(argv)

    if args.rules:
        for rule in sorted(RULE_DESCRIPTIONS):
            print(f"{rule:24s} {RULE_DESCRIPTIONS[rule]}")
        return 0

    targets = args.paths or [default_tree()]
    findings = []
    files = 0
    for target in targets:
        if not os.path.exists(target):
            print(f"no such path: {target}", file=sys.stderr)
            return 2
        for path in iter_python_files(target):
            files += 1
            findings.extend(lint_file(path))

    if args.format == "json":
        print(json.dumps([
            {"path": f.path, "line": f.line, "col": f.col + 1,
             "rule": f.rule, "policy": policy_for(f.path).name,
             "message": f.message}
            for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding.render())
        noun = "finding" if len(findings) == 1 else "findings"
        print(f"analyze: {len(findings)} {noun} in {files} file(s)")
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - module smoke entry
    raise SystemExit(main())
