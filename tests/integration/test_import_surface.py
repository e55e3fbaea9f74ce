""""Off means free" per process: what an untraced, unsanitized cell imports.

``test_layer_budgets.py`` holds a disabled layer to zero calls and zero bytes
per packet; this holds it to zero modules per process.  Each case runs in a
fresh interpreter, because this one already holds everything the suite
imported.  ``JUGGLER_SANITIZE`` is cleared in the child unless a case sets
it, so the ``sanitize`` job reads the same surface.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Loaded only by tracing, JSAN or the campaign scheduler.
ABSENT = ("concurrent.futures", "multiprocessing", "socket", "logging",
          "repro.trace.events", "repro.trace.metrics", "repro.trace.sinks",
          "repro.trace.tracer", "repro.analysis.sanitizer")

#: The four benchmark families plus the faults matrix, then one built cell
#: (the NetFPGA pair: engine, links, NICs, a JugglerGRO per host).
BUILD_CELL = """
from repro.experiments import (cc_reordering, fig13_ofo_timeout_throughput,
                               fig15_active_flows, host_vs_fabric)
import repro.faults.experiments
from repro.experiments.cell import Cell
bed = Cell(7, "juggler", inseq_us=52, ofo_us=300).pair("fabric")
"""


def modules_after(code, sanitize=None):
    """The names in ``sys.modules`` of a fresh interpreter that ran ``code``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("JUGGLER_SANITIZE", None)
    if sanitize is not None:
        env["JUGGLER_SANITIZE"] = sanitize
    done = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport sys\nprint(*sorted(sys.modules), sep='\\n')"],
        env=env, capture_output=True, text=True, check=True)
    return set(done.stdout.split())


def is_under(name, *packages):
    return any(name == p or name.startswith(p + ".") for p in packages)


def test_the_engine_loads_only_sim_and_the_trace_switch():
    loaded = {m for m in modules_after("import repro.sim.engine")
              if is_under(m, "repro")}
    extra = {m for m in loaded
             if m not in ("repro", "repro.trace", "repro.trace.runtime")
             and not is_under(m, "repro.sim")}
    assert sorted(extra) == []


def test_an_untraced_cell_loads_no_tracer_sanitizer_or_scheduler():
    loaded = modules_after(BUILD_CELL)
    assert "repro.core.juggler" in loaded
    assert sorted(m for m in loaded
                  if m in ABSENT or is_under(m, "repro.campaign")) == []


def test_jsan_loads_when_it_is_asked_for():
    loaded = modules_after(BUILD_CELL + """
from repro.core.config import JugglerConfig
from repro.core.juggler import JugglerGRO
assert JugglerGRO(lambda segment: None, JugglerConfig()).sanitizer is not None
""", sanitize="1")
    assert "repro.analysis.sanitizer" in loaded
