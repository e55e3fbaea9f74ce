"""The settable surface: every config field names the experiment that sets it.

A field stays settable only while a non-test module sets it to a
non-default value; otherwise it is a constant.  Each table maps a field to
the module (relative to ``src/repro``) whose source contains ``<field>=``,
or to a one-line reason it stays settable without one.  Adding a field
means adding its caller here.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.core.config import JugglerConfig
from repro.fabric.detector import DetectorConfig
from repro.nic.nic import NicConfig
from repro.steer.flow_director import FlowDirectorConfig
from repro.tcp.config import TcpConfig

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Prefix of an entry that is a reason, not a module.
REASON = "kept: "

SURFACE = {
    TcpConfig: {
        "init_cwnd": "experiments/fig12_inseq_timeout.py",
        "rx_buffer": "experiments/cc_reordering.py",
        "cc": "experiments/cc_reordering.py",
    },
    JugglerConfig: {
        "inseq_timeout": "experiments/cell.py",
        "ofo_timeout": "experiments/cell.py",
        "table_capacity": "experiments/fig15_active_flows.py",
        "max_segment_bytes": REASON + "tests reach SEGMENT_FULL with small "
                                      "segments; ROADMAP item 12 sweeps it",
        "enable_buildup": "experiments/ablations.py",
        "protocols": REASON + "adding protocol 132 is how repro.sctp (§4) "
                              "is enabled",
        "eviction_policy": "experiments/ablations.py",
    },
    NicConfig: {
        "num_queues": "experiments/common.py",
        "coalesce_ns": "experiments/common.py",
        "coalesce_frames": "experiments/common.py",
    },
    FlowDirectorConfig: {
        "table_size": "experiments/fdir_reordering.py",
        "sample_rate": "experiments/fdir_reordering.py",
        "groups": "experiments/fdir_reordering.py",
    },
    DetectorConfig: {
        "memory_budget_bytes": "experiments/host_vs_fabric.py",
        "heavy_threshold_bytes": "experiments/host_vs_fabric.py",
        "stale_after": REASON + "tests reach slot reclaim at test scale",
    },
}


@pytest.mark.parametrize("config", list(SURFACE), ids=lambda c: c.__name__)
def test_every_field_names_its_caller(config):
    table = SURFACE[config]
    assert set(table) == {f.name for f in dataclasses.fields(config)}
    for field, caller in table.items():
        if caller.startswith(REASON):
            continue
        source = (SRC / caller).read_text()
        assert f"{field}=" in source, f"{caller} does not set {field}"
