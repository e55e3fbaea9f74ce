""""Off means free" per process: what an untraced, unsanitized cell imports.

``test_layer_budgets.py`` holds a disabled layer to zero calls and zero bytes
per packet; this holds it to zero modules per process.  Each case runs in a
fresh interpreter, because this one already holds everything the suite
imported.  ``JUGGLER_SANITIZE`` is cleared in the child unless a case sets
it, so the ``sanitize`` job reads the same surface.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Loaded only by tracing, JSAN or the campaign scheduler — or, for the
#: ``repro`` modules after the first line, only where what they define is
#: built: other CC policies, the rejected GRO baselines, the CPU model,
#: flowcut, wire injectors, non-RSS steering and background load.
ABSENT = ("concurrent.futures", "multiprocessing", "socket", "logging",
          "repro.trace.events", "repro.trace.metrics", "repro.trace.sinks",
          "repro.trace.tracer", "repro.analysis.sanitizer",
          "repro.analysis.spec",
          "repro.cc.cubic", "repro.cc.dctcp", "repro.core.chained_gro",
          "repro.core.presto_gro", "repro.cpu.core", "repro.fabric.flowcut",
          "repro.faults.injectors",
          "repro.steer.flow_director", "repro.steer.static",
          "repro.workloads.background")

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
from repro.analysis import runtime
JugglerGRO(lambda segment: None, JugglerConfig()).poll_complete(0)
assert runtime.current().checks_run == 1
""", sanitize="1")
    assert {"repro.analysis.sanitizer", "repro.analysis.spec"} <= loaded


def test_a_cc_policy_loads_when_it_is_built():
    loaded = modules_after("""
from repro.cc.base import make_cc
from repro.cc.rtt import RttEstimator
from repro.tcp.config import TcpConfig
make_cc("cubic", TcpConfig(cc="cubic"), RttEstimator())
""")
    assert "repro.cc.cubic" in loaded
    assert "repro.cc.dctcp" not in loaded


def test_flowcut_loads_with_a_flowcut_clos():
    loaded = modules_after("""
from repro.experiments.cell import Cell
from repro.experiments.host_vs_fabric import _policy_factory
cell = Cell(7, "juggler", inseq_us=52, ofo_us=300)
cell.clos(_policy_factory("flowcut", cell), 40.0, hosts_per_tor=2)
""")
    assert "repro.fabric.flowcut" in loaded


def test_wire_injectors_load_with_a_loss_window():
    loaded = modules_after("""
from repro.experiments.cell import Cell
from repro.faults.plan import FaultPlan, FaultSpec
plan = FaultPlan("loss", (FaultSpec("drop", "loss", 0, 1000),))
bed = Cell(7, "juggler", inseq_us=52, ofo_us=300).pair("fabric",
                                                        fault_plan=plan)
assert bed.faults is not None
""")
    assert "repro.faults.injectors" in loaded


def test_a_gro_baseline_loads_when_its_factory_is_built():
    loaded = modules_after("""
from repro.harness.experiment import GroKind, make_gro_factory
make_gro_factory(GroKind.CHAINED)
""")
    assert "repro.core.chained_gro" in loaded
    assert "repro.core.presto_gro" not in loaded


def test_no_package_init_imports_a_submodule():
    """Every ``repro`` package ``__init__`` is its docstring (and at most a
    ``from __future__`` import): import from the defining module."""
    inits = sorted(Path(SRC, "repro").rglob("__init__.py"))
    assert inits
    offenders = []
    for path in inits:
        body = ast.parse(path.read_text()).body
        doc, rest = body[:1], body[1:]
        is_doc = (len(doc) == 1 and isinstance(doc[0], ast.Expr)
                  and isinstance(doc[0].value, ast.Constant)
                  and isinstance(doc[0].value.value, str))
        if not is_doc or any(
                not (isinstance(node, ast.ImportFrom)
                     and node.module == "__future__") for node in rest):
            offenders.append(str(path.relative_to(SRC)))
    assert offenders == []
