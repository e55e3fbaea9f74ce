"""Typed events, ring-buffer bounding, JSONL round-trip, Chrome export."""

import json

import pytest

from repro.core.flush import FlushReason
from repro.core.phases import Phase
from repro.net.addr import FiveTuple
from repro.trace.events import (
    EventKind,
    Flush,
    PacketRx,
    PhaseTransition,
    TimerFire,
)
from repro.trace.sinks import (
    CallbackSink,
    ChromeTraceSink,
    JsonlSink,
    RingBufferSink,
    read_jsonl,
)
from repro.trace.tracer import Tracer

FLOW = FiveTuple(1, 2, 1000, 80)
FLOW_B = FiveTuple(3, 4, 2000, 80)


def _sample_events():
    return [
        PacketRx(100, FLOW, 0, 1448, 1448),
        PhaseTransition(100, FLOW, Phase.INITIAL, Phase.BUILD_UP),
        Flush(250, FLOW, 0, 1448, 1, FlushReason.INSEQ_TIMEOUT),
        TimerFire(300, "rxq.hrtimer"),
        Flush(400, FLOW_B, 0, 2896, 2, FlushReason.SEGMENT_FULL),
    ]


# -- events -------------------------------------------------------------------

def test_event_to_dict_flattens_enums_and_flows():
    d = Flush(250, FLOW, 0, 1448, 1, FlushReason.FLAGS).to_dict()
    assert d == {
        "event": "flush",
        "ts": 250,
        "flow": str(FLOW),
        "seq": 0,
        "end_seq": 1448,
        "mtus": 1,
        "reason": "flags",
    }


def test_events_are_frozen():
    event = PacketRx(1, FLOW, 0, 1448, 1448)
    with pytest.raises(Exception):
        event.ts = 2


def test_timer_event_has_no_flow():
    d = TimerFire(5, "rxq.irq").to_dict()
    assert d["flow"] is None
    assert d["source"] == "rxq.irq"


def test_every_kind_has_distinct_wire_name():
    names = [k.value for k in EventKind]
    assert len(names) == len(set(names))


# -- tracer dispatch ----------------------------------------------------------

def test_tracer_counts_and_fans_out():
    ring = RingBufferSink(16)
    seen = []
    tracer = Tracer([ring, CallbackSink(seen.append)])
    tracer.packet_rx(10, FLOW, 0, 1448, 1448)
    tracer.flush(20, FLOW, 0, 1448, 1, FlushReason.FLAGS)
    assert tracer.events_emitted == 2
    assert tracer.by_kind[EventKind.FLUSH] == 1
    assert len(ring) == 2
    assert [e.kind for e in seen] == [EventKind.PACKET_RX, EventKind.FLUSH]


def test_tracer_kind_filter_suppresses_construction():
    ring = RingBufferSink(16)
    tracer = Tracer([ring], kinds={EventKind.FLUSH})
    tracer.packet_rx(10, FLOW, 0, 1448, 1448)
    tracer.flush(20, FLOW, 0, 1448, 1, FlushReason.FLAGS)
    assert [e.kind for e in ring.events] == [EventKind.FLUSH]
    assert tracer.events_emitted == 1


def test_tracer_epochs_keep_ts_monotonic():
    """bind_engine starts a new epoch appended after everything emitted."""
    ring = RingBufferSink(16)
    tracer = Tracer([ring])
    tracer.packet_rx(1000, FLOW, 0, 1448, 1448)

    class FakeEngine:
        events_processed = 0
        pending = 0

    tracer.bind_engine(FakeEngine())
    tracer.packet_rx(10, FLOW, 0, 1448, 1448)  # raw ts restarts low
    ts = [e.ts for e in ring.events]
    assert ts == sorted(ts)
    assert ts[1] == 1000 + 10


# -- ring buffer --------------------------------------------------------------

def test_ring_buffer_is_bounded_and_keeps_newest():
    ring = RingBufferSink(capacity=3)
    for i in range(10):
        ring.emit(PacketRx(i, FLOW, 0, 1, 1))
    assert len(ring) == 3
    assert ring.offered == 10
    assert [e.ts for e in ring.events] == [7, 8, 9]


def test_ring_buffer_drain_clears():
    ring = RingBufferSink(capacity=8)
    ring.emit(PacketRx(1, FLOW, 0, 1, 1))
    assert len(ring.drain()) == 1
    assert len(ring) == 0


def test_ring_buffer_rejects_silly_capacity():
    with pytest.raises(ValueError):
        RingBufferSink(0)


# -- JSONL --------------------------------------------------------------------

def test_jsonl_round_trip(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    sink = JsonlSink(path)
    events = _sample_events()
    for event in events:
        sink.emit(event)
    sink.close()
    loaded = read_jsonl(path)
    assert loaded == [e.to_dict() for e in events]


def test_jsonl_close_is_idempotent(tmp_path):
    sink = JsonlSink(str(tmp_path / "t.jsonl"))
    sink.close()
    sink.close()


# -- Chrome trace_event export ------------------------------------------------

def _export(tmp_path, events):
    path = str(tmp_path / "trace.json")
    sink = ChromeTraceSink(path)
    for event in events:
        sink.emit(event)
    sink.close()
    with open(path) as fh:
        return json.load(fh)


def test_chrome_export_is_valid_schema(tmp_path):
    doc = _export(tmp_path, _sample_events())
    records = doc["traceEvents"]
    assert records, "export must not be empty"
    for record in records:
        # The trace_event schema: every record carries ph/ts/pid/tid/name.
        assert set(("ph", "ts", "pid", "tid", "name")) <= set(record)
    phases = {r["ph"] for r in records}
    assert phases <= {"M", "i"}


def test_chrome_export_ts_monotonic_per_track(tmp_path):
    doc = _export(tmp_path, _sample_events())
    per_track = {}
    for record in doc["traceEvents"]:
        if record["ph"] == "M":
            continue
        per_track.setdefault((record["pid"], record["tid"]), []).append(
            record["ts"])
    assert per_track, "expected at least one instant-event track"
    for ts in per_track.values():
        assert ts == sorted(ts)


def test_chrome_export_one_track_per_flow(tmp_path):
    doc = _export(tmp_path, _sample_events())
    names = {r["args"]["name"]: r["tid"] for r in doc["traceEvents"]
             if r["name"] == "thread_name"}
    assert str(FLOW) in names
    assert str(FLOW_B) in names
    assert names[str(FLOW)] != names[str(FLOW_B)]
    # Flow-less events (timer) ride the dedicated "stack" track 0.
    assert names["stack"] == 0
    timer = [r for r in doc["traceEvents"] if r["name"] == "timer"]
    assert timer and all(r["tid"] == 0 for r in timer)


def test_chrome_export_flush_args_carry_reason(tmp_path):
    doc = _export(tmp_path, _sample_events())
    flushes = [r for r in doc["traceEvents"] if r["name"] == "flush"]
    assert {r["args"]["reason"] for r in flushes} == {
        "inseq_timeout", "segment_full"}
