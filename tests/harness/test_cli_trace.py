"""The ``juggler-repro trace`` subcommand."""

import json

import pytest

from repro.cli import EXPERIMENTS, main
from repro.core.config import JugglerConfig
from repro.core.juggler import JugglerGRO
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.net.packet import Packet
from repro.nic.rxqueue import RxQueue
from repro.sim.engine import Engine
from repro.sim.time import US
from repro.trace.sinks import read_jsonl

FLOW = FiveTuple(1, 2, 1000, 80)


def _mini_experiment() -> str:
    """A tiny real run: engine + rxqueue + Juggler, lightly reordered.

    Components are constructed *inside* the runner, so they pick up whatever
    tracer the CLI installed — exactly how the full experiments behave.
    """
    engine = Engine()
    gro = JugglerGRO(lambda segment: None,
                     JugglerConfig(inseq_timeout=15 * US, ofo_timeout=50 * US))
    rxq = RxQueue(engine, gro, coalesce_ns=10 * US, name="rxq0")
    for i, seq in enumerate((0, 2, 1, 3, 5)):
        engine.schedule(i * 2 * US, rxq.enqueue,
                        Packet(FLOW, seq * MSS, MSS, sent_at=0))
    engine.run()
    rxq.drain()
    return "mini-table"


@pytest.fixture()
def stub_experiment(monkeypatch):
    monkeypatch.setitem(EXPERIMENTS, "fig12", (_mini_experiment, "stubbed"))


def test_trace_chrome_artifact(stub_experiment, tmp_path, capsys):
    out = str(tmp_path / "fig12.json")
    assert main(["trace", "fig12", "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "mini-table" in printed
    assert "trace written to" in printed
    with open(out) as fh:
        doc = json.load(fh)
    names = {r["name"] for r in doc["traceEvents"]}
    assert {"packet_rx", "flush", "phase", "timer"} <= names
    # Instant events carry the schema fields and stay time-ordered per track.
    tracks = {}
    for r in doc["traceEvents"]:
        assert {"ph", "ts", "pid", "tid", "name"} <= set(r)
        if r["ph"] != "M":
            tracks.setdefault(r["tid"], []).append(r["ts"])
    for ts in tracks.values():
        assert ts == sorted(ts)


def test_trace_jsonl_artifact(stub_experiment, tmp_path):
    out = str(tmp_path / "fig12.jsonl")
    assert main(["trace", "fig12", "--out", out, "--format", "jsonl"]) == 0
    events = read_jsonl(out)
    assert events and all("event" in e and "ts" in e for e in events)


def test_trace_event_filter(stub_experiment, tmp_path):
    out = str(tmp_path / "flushes.jsonl")
    assert main(["trace", "fig12", "--out", out, "--format", "jsonl",
                 "--events", "flush,phase"]) == 0
    kinds = {e["event"] for e in read_jsonl(out)}
    assert kinds <= {"flush", "phase"}
    assert "flush" in kinds


def test_trace_unknown_experiment(tmp_path, capsys):
    assert main(["trace", "not-a-figure"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_trace_unknown_event_kind(stub_experiment, tmp_path, capsys):
    out = str(tmp_path / "x.json")
    assert main(["trace", "fig12", "--out", out,
                 "--events", "bogus"]) == 2
    assert "unknown event kind" in capsys.readouterr().err


def test_trace_leaves_runtime_clean(stub_experiment, tmp_path):
    from repro.trace import runtime

    out = str(tmp_path / "fig12.json")
    assert main(["trace", "fig12", "--out", out]) == 0
    assert runtime.current() is None
