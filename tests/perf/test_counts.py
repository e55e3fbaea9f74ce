"""The perf record: ``BENCH_counts.json`` holds exactly, a moved count is
named with its direction, and what the record counts does not depend on
the interpreter."""

import json
import sys

import pytest

from repro.analysis import runtime as sanitize_runtime
from repro.perf import counts
from repro.perf.cli import main as bench
from repro.sim.engine import Engine

CHEAPEST = "cc_bbr_inorder"


def test_committed_record_holds(capsys):
    assert bench(["--check"]) == 0, capsys.readouterr()


def test_events_are_the_engines_own_count(monkeypatch):
    run = counts.CELLS[CHEAPEST]
    run()
    engines = []
    init = Engine.__init__

    def tracked(self):
        init(self)
        engines.append(self)

    monkeypatch.setattr(Engine, "__init__", tracked)
    events, _ = counts.count(run)
    assert events == sum(e.events_processed for e in engines) > 10_000


@pytest.fixture
def record(tmp_path, monkeypatch):
    """The committed record, copied to a scratch path the command reads."""
    record = counts.load()
    monkeypatch.setattr(counts, "RECORD", tmp_path / "BENCH_counts.json")
    counts.write(record)
    return record


@pytest.fixture
def doctored(record):
    """A copy of the record in which one site reads one call more, another
    one call less, than the tree makes."""
    sites = sorted(record[CHEAPEST]["calls"])
    high, low = sites[0], sites[1]
    record[CHEAPEST]["calls"][high] += 1
    record[CHEAPEST]["calls"][low] -= 1
    counts.write(record)
    return record, high, low


def test_check_names_what_rose_and_what_fell(doctored, capsys):
    record, high, low = doctored
    assert bench(["--bench", CHEAPEST, "--check"]) == 1
    out, err = capsys.readouterr()
    old_high, old_low = record[CHEAPEST]["calls"][high], record[CHEAPEST]["calls"][low]
    rose, fell = out.split("\nrose:\n")[1].split("\nfell:\n")
    assert f"{CHEAPEST}  {low}: {old_low:,} -> {old_low + 1:,}" in rose
    assert f"{CHEAPEST}  {high}: {old_high:,} -> {old_high - 1:,}" in fell
    assert "1 count(s) rose" in err
    assert "1 count(s) fell: run 'juggler-repro bench --update'" in err


def test_update_rewrites_only_the_cells_it_ran(doctored):
    record, high, low = doctored
    assert bench(["--bench", CHEAPEST, "--update"]) == 0
    rewritten = json.loads(counts.RECORD.read_text())
    assert rewritten[CHEAPEST]["calls"][high] == record[CHEAPEST]["calls"][high] - 1
    assert {k: v for k, v in rewritten.items() if k != CHEAPEST} == {
        k: v for k, v in record.items() if k != CHEAPEST}
    assert bench(["--bench", CHEAPEST, "--check"]) == 0


def test_unknown_cell_is_a_usage_error(capsys):
    assert bench(["--bench", "nope"]) == 2
    assert "unknown cell(s): nope" in capsys.readouterr().err


def test_a_recorded_cell_nothing_measures_fails_the_check(record,
                                                          monkeypatch, capsys):
    monkeypatch.setattr(counts, "CELLS", {CHEAPEST: counts.CELLS[CHEAPEST]})
    # A subset holds only its own rows; the whole check holds every row.
    assert bench(["--bench", CHEAPEST, "--check"]) == 0
    assert bench(["--check"]) == 1
    out, err = capsys.readouterr()
    fell = out.split("\nfell:\n")[1]
    gone = record["fig13_ofo_short"]["events"]
    assert f"fig13_ofo_short  events: {gone:,} -> 0" in fell
    assert "count(s) fell: run 'juggler-repro bench --update'" in err
    assert bench(["--update"]) == 0
    assert list(counts.load()) == [CHEAPEST]


PROBE = (
    "def probe(n):\n"
    "    return ([i for i in range(n)], {i: i for i in range(n)},\n"
    "            {i for i in range(n)}, sum(i for i in range(n)))\n")


@pytest.fixture
def probe():
    namespace = {}
    exec(compile(PROBE, "/x/repro/probe.py", "exec"), namespace)
    return lambda: namespace["probe"](3)


def test_the_record_leaves_comprehension_frames_out(probe, monkeypatch):
    monkeypatch.setitem(counts.CELLS, "probe", probe)
    # The generator expression is a frame on every interpreter, resumed once
    # per item plus the final StopIteration.
    assert counts.measure("probe") == {
        "events": 0, "calls": {"probe.py:probe": 1, "probe.py:<genexpr>": 4}}


def test_budgets_count_comprehension_frames_where_they_exist(probe):
    counted = counts.calls(probe)
    frames = 0 if sys.version_info >= (3, 12) else 1  # PEP 709 inlines them
    assert counted == {("probe.py", "probe"): 1, ("probe.py", "<genexpr>"): 4,
                       **{("probe.py", name): frames for name in
                          ("<listcomp>", "<dictcomp>", "<setcomp>") if frames}}


def test_counting_keeps_an_installed_sanitizer(probe, monkeypatch):
    monkeypatch.setitem(counts.CELLS, "probe", probe)
    with sanitize_runtime.sanitizing() as sanitizer:
        counts.measure("probe")
        assert sanitize_runtime.current() is sanitizer
