"""What a run costs inside ``repro/``, counted: Python-level calls per
``(file, function)``, events the engine fires, retained bytes per file.

``sys.setprofile`` sees every call of a Python function (builtins and C
methods are free); ``tracemalloc`` attributes every live block to the file of
the frame that allocated it.  The two instruments never run together: the
profiler materialises a frame object per call, which tracemalloc would book
against the callee's file.

Budget tests hold the *marginal* cost: the same rig runs at size N and at 2N
and the readings are subtracted, so whatever is paid once cancels.  The perf
record, ``BENCH_counts.json``, holds the whole counts of four shortened
benchmark cells (:data:`CELLS`); ``juggler-repro bench --check`` compares.
The record leaves comprehension frames out: Python 3.12 inlines them
(PEP 709), and one record has to hold on every interpreter.  The budgets
count them, so a comprehension added to a per-packet path still costs there.
"""

from __future__ import annotations

import json
import os
import sys
import sysconfig
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

from repro.analysis import runtime as sanitize_runtime
from repro.experiments import (
    cc_reordering,
    fig13_ofo_timeout_throughput as fig13,
    fig15_active_flows as fig15,
    host_vs_fabric,
)
from repro.sim.engine import Engine
from repro.trace import runtime as trace_runtime

_STDLIB = os.path.normcase(sysconfig.get_paths()["stdlib"]) + os.sep
_COMPREHENSIONS = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})
#: An event is a call made by the engine's run loop.
_LOOP = Engine._loop.__code__


def _under_repro(filename):
    """``fabric/link.py`` for ``.../src/repro/fabric/link.py``, else None."""
    _, found, tail = filename.replace("\\", "/").rpartition("/repro/")
    return tail if found else None


def _in_stdlib(filename):
    """``<stdlib>/random.py`` for the standard library's ``random.py``, else
    None (installed packages included)."""
    filename = os.path.normcase(filename)
    if not filename.startswith(_STDLIB) or "site-packages" in filename:
        return None
    return "<stdlib>/" + filename[len(_STDLIB):].replace("\\", "/")


def count(run, everywhere=False) -> Tuple[int, Counter]:
    """``(events, calls)`` of ``run()``: how many callbacks the engine fired,
    and ``(file, function) -> calls`` with files relative to ``repro/``.  With
    ``everywhere``, standard-library frames count too, keyed
    ``("<stdlib>/random.py", name)``."""
    counts: Counter = Counter()
    keys: dict = {}  # code object -> (file, function), falsy if not counted
    events = 0

    def profiler(frame, event, arg):
        nonlocal events
        if event == "call":
            code = frame.f_code
            try:
                key = keys[code]
            except KeyError:
                filename = _under_repro(code.co_filename)
                if filename is None and everywhere:
                    filename = _in_stdlib(code.co_filename)
                key = keys[code] = filename and (filename, code.co_name)
            if key:
                counts[key] += 1
            if frame.f_back.f_code is _LOOP:
                events += 1

    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(None)
    return events, counts


def calls(run, everywhere=False) -> Counter:
    """``(file, function) -> calls`` that ``run()`` makes (see :func:`count`)."""
    return count(run, everywhere)[1]


def marginal_calls(run_n, run_2n, everywhere=False) -> Counter:
    """``(file, function) -> calls`` that ``run_2n()`` makes beyond
    ``run_n()``, files relative to ``repro/``.  ``run_n`` goes first, so
    what the process pays once (a memo filling) is never read as marginal."""
    once = calls(run_n, everywhere)
    return calls(run_2n, everywhere) - once


def marginal_bytes(run_n, run_2n, owner, method: str) -> Counter:
    """``file -> bytes`` by which a file's live allocations grew from
    ``run_n()`` to ``run_2n()``, each read when ``owner.method`` returns — a
    point both runs pass once, their universe still alive."""
    samples = []
    original = getattr(owner, method)
    own = vars(owner).get(method)

    def sampled(*args, **kwargs):
        result = original(*args, **kwargs)
        held: Counter = Counter()
        for stat in tracemalloc.take_snapshot().statistics("filename"):
            filename = _under_repro(stat.traceback[0].filename)
            if filename:
                held[filename] += stat.size
        samples.append(held)
        return result

    setattr(owner, method, sampled)
    try:
        for run in (run_n, run_2n):
            tracemalloc.start()
            try:
                run()
            finally:
                tracemalloc.stop()
    finally:
        if own is None:
            delattr(owner, method)
        else:
            setattr(owner, method, own)
    once, twice = samples
    return twice - once


# -- the record ---------------------------------------------------------------

#: The ``BENCHMARK.json`` workloads through their modules' entry points, the
#: measured windows shortened.
CELLS: Dict[str, partial] = {
    "fig13_ofo_short": partial(
        fig13.run_cell, fig13.Fig13Params(warmup_ms=1, measure_ms=4), 500, 300),
    "fig15_many_flows": partial(
        fig15.run_cell, fig15.Fig15Params(warmup_ms=1, measure_ms=4), 256, 500),
    "clos_spray_fault": partial(
        host_vs_fabric.run_point,
        host_vs_fabric.HostFabricParams(warmup_ms=1, measure_ms=2),
        engine="juggler", routing="per_packet", load=3, fault=1),
    "cc_bbr_inorder": partial(
        cc_reordering.run_point, cc_reordering.CcParams(warmup_ms=1, duration_ms=5),
        cc="bbr", intensity=0, engine="standard"),
}

RECORD = Path(__file__).resolve().parents[3] / "BENCH_counts.json"


@contextmanager
def _layers_off() -> Iterator[None]:
    """JSAN and the tracer off for the block."""
    tracer = trace_runtime.current()
    sanitizer = sanitize_runtime._current, sanitize_runtime._env_checked
    trace_runtime.uninstall()
    sanitize_runtime.uninstall()
    try:
        yield
    finally:
        sanitize_runtime._current, sanitize_runtime._env_checked = sanitizer
        if tracer is not None:
            trace_runtime.install(tracer)


def measure(name: str) -> dict:
    """``{"events": n, "calls": {"file:function": n}}`` for one cell: run it
    once so process-wide memos are full, then count the second run,
    comprehension frames left out."""
    with _layers_off():
        CELLS[name]()
        events, counts = count(CELLS[name])
    return {"events": events,
            "calls": {f"{file}:{function}": n
                      for (file, function), n in sorted(counts.items())
                      if function not in _COMPREHENSIONS}}


def load() -> dict:
    """The committed record (empty when there is none)."""
    return json.loads(RECORD.read_text()) if RECORD.exists() else {}


def write(record: dict, path: Optional[Path] = None) -> None:
    """Write ``record`` (default: over the committed one), sorted, one key
    per line."""
    (path or RECORD).write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")


def compare(recorded: dict, measured: dict) -> Tuple[list, list]:
    """``(rose, fell)``: ``(cell, "events" or "file:function", recorded,
    measured)`` for every count that differs, a cell or site missing on one
    side reading 0."""
    rose: list = []
    fell: list = []
    nothing = {"events": 0, "calls": {}}
    for cell in sorted(recorded.keys() | measured.keys()):
        old, new = (side.get(cell, nothing) for side in (recorded, measured))
        old = {"events": old["events"], **old["calls"]}
        new = {"events": new["events"], **new["calls"]}
        for site in sorted(old.keys() | new.keys()):
            before, after = old.get(site, 0), new.get(site, 0)
            if before != after:
                (rose if after > before else fell).append(
                    (cell, site, before, after))
    return rose, fell
