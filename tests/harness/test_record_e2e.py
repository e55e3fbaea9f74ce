"""``scripts/record_e2e.py``'s argument handling and pair verdict (nothing is
run)."""

import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


@pytest.fixture
def record_e2e():
    spec = importlib.util.spec_from_file_location(
        "record_e2e", os.path.join(ROOT, "scripts", "record_e2e.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_against_the_same_checkout_is_refused(record_e2e, tmp_path,
                                              monkeypatch, capsys):
    """Spelled differently, ``--against`` still names the ``--root`` tree:
    the pairs would ratio a tree against itself."""
    out = tmp_path / "out.jsonl"
    monkeypatch.setattr(sys, "argv", [
        "record_e2e.py", "--root", ROOT,
        "--against", os.path.join(ROOT, "scripts", os.pardir),
        "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        record_e2e.main()
    assert exc.value.code == 2
    assert "is the --root checkout" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, seeds", [
    ([], [7]),
    (["--seed", "7", "--seed", "23"], [7, 23]),
])
def test_seed_repeats(record_e2e, monkeypatch, argv, seeds):
    recorded = []
    monkeypatch.setattr(record_e2e, "record",
                        lambda args, seed: recorded.append(seed))
    monkeypatch.setattr(sys, "argv", ["record_e2e.py"] + argv)
    assert record_e2e.main() == 0
    assert recorded == seeds


#: Ten parent runs: median 1.005, quartiles 0.98 / 1.02 (distance 0.04).
PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


@pytest.mark.parametrize("change, expected", [
    # Ahead in 10 of 10, medians 0.1 apart.
    ([p * 0.9 for p in PARENT], "better"),
    # Behind in 10 of 10, medians 0.1 apart.
    ([p * 1.1 for p in PARENT], "worse"),
    # Ahead in 9 of 10, but the medians are 0.015 apart: inside the quartiles.
    ([p - 0.01 for p in PARENT[:9]] + [PARENT[9] + 0.01], "unresolved"),
])
def test_verdict(record_e2e, change, expected):
    pairs = record_e2e.pairs_of(PARENT, change)
    assert pairs["verdict"] == expected
    assert pairs["n"] == 10
