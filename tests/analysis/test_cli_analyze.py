"""``juggler-repro analyze``: exit codes and output formats."""

import json
import os

from repro.analysis.cli import main as analyze
from repro.cli import main as cli_main

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "determinism_violations.py")

#: Rules the seeded fixture must trip (random.choice carries an
#: unjustified pragma, so it surfaces as bad-pragma, not global-random).
EXPECTED_RULES = {"wall-clock", "global-random", "raw-rng", "mutable-default",
                  "set-iteration", "float-ns", "id-ordering", "unordered-pop",
                  "bad-pragma"}


def test_clean_tree_exits_zero(capsys):
    assert analyze([]) == 0
    out = capsys.readouterr().out
    assert "0 findings" in out


def test_seeded_fixture_exits_nonzero(capsys):
    assert analyze([FIXTURE]) == 1
    out = capsys.readouterr().out
    for rule in EXPECTED_RULES:
        assert f"[{rule}]" in out, f"fixture did not trip {rule}"


def test_json_format(capsys):
    assert analyze(["--format", "json", FIXTURE]) == 1
    findings = json.loads(capsys.readouterr().out)
    assert {f["rule"] for f in findings} == EXPECTED_RULES
    for f in findings:
        assert f["path"].endswith("determinism_violations.py")
        assert f["line"] >= 1 and f["col"] >= 1
        # Unknown paths resolve to the strict policy.
        assert f["policy"] == "strict"


def test_bad_path_exits_two(capsys):
    assert analyze(["/no/such/path.py"]) == 2
    assert "no such path" in capsys.readouterr().err


def test_rules_catalog(capsys):
    assert analyze(["--rules"]) == 0
    out = capsys.readouterr().out
    listed = {line.split()[0] for line in out.splitlines()}
    assert listed == EXPECTED_RULES


def test_dispatch_through_main_cli(capsys):
    assert cli_main(["analyze", FIXTURE]) == 1
    assert cli_main(["analyze", "--rules"]) == 0
