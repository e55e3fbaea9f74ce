"""What a run costs inside ``repro/`` in Python-level calls and retained
bytes — counts, not timings.

``sys.setprofile`` sees every call of a Python function (builtins and C
methods are free); ``tracemalloc`` attributes every live block to the file of
the frame that allocated it.  Budgets are asserted on the *marginal* cost: the
same rig runs at size N and at size 2N and the two readings are subtracted, so
whatever is paid once (construction, ``run_until``, arming a timer) cancels.
On request the call count also sees the standard library (a stdlib frame in a
per-packet path is a cost like any other).  The two instruments never run
together: the profiler materialises a frame object per call, which
tracemalloc would book against the callee's file.
"""

import os
import sys
import sysconfig
import tracemalloc
from collections import Counter

import pytest

_STDLIB = os.path.normcase(sysconfig.get_paths()["stdlib"]) + os.sep


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


def _calls(run, everywhere=False) -> Counter:
    counts: Counter = Counter()
    keys: dict = {}  # code object -> (file, function), None if not counted

    def profiler(frame, event, arg):
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

    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


def marginal_calls(run_n, run_2n, everywhere=False) -> Counter:
    """``(file, function) -> calls`` that ``run_2n()`` makes beyond
    ``run_n()``, files relative to ``repro/``.  ``run_n`` goes first, so
    what the process pays once (a memo filling) is never read as marginal.
    With ``everywhere``, standard-library frames count too, keyed
    ``("<stdlib>/random.py", name)``."""
    once = _calls(run_n, everywhere)
    return _calls(run_2n, everywhere) - once


def marginal_bytes(run_n, run_2n, owner, method: str) -> Counter:
    """``file -> bytes`` by which a file's live allocations grew from
    ``run_n()`` to ``run_2n()``, each read when ``owner.method`` returns — a
    point both runs pass once, their universe still alive."""
    samples = []
    original = getattr(owner, method)

    def sampled(*args, **kwargs):
        result = original(*args, **kwargs)
        held: Counter = Counter()
        for stat in tracemalloc.take_snapshot().statistics("filename"):
            filename = _under_repro(stat.traceback[0].filename)
            if filename:
                held[filename] += stat.size
        samples.append(held)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(owner, method, sampled)
        for run in (run_n, run_2n):
            tracemalloc.start()
            try:
                run()
            finally:
                tracemalloc.stop()
    once, twice = samples
    return twice - once
