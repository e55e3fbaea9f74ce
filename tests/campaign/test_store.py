"""The append-only JSONL result store and its corruption tolerance."""

import json
import logging

from repro.campaign.store import ResultStore, make_record


def record(fp, status="ok", index=0):
    wire = {"fingerprint": fp, "campaign": "c", "experiment": "e",
            "index": index, "base": {}, "point": {"i": index}, "seed": None}
    outcome = ({"status": "ok", "rows": [{"v": index}], "elapsed_s": 0.1}
               if status == "ok"
               else {"status": "error", "error": "boom"})
    return make_record(wire, outcome)


def test_append_load_round_trip(tmp_path):
    store = ResultStore(tmp_path / "r.jsonl")
    assert store.load() == []
    assert not store.exists_nonempty()
    store.append(record("aa"))
    store.append(record("bb", status="failed", index=1))
    loaded = store.load()
    assert [r["fingerprint"] for r in loaded] == ["aa", "bb"]
    assert loaded[0]["status"] == "ok"
    assert loaded[1]["status"] == "failed"
    assert store.exists_nonempty()


def test_completed_excludes_failures(tmp_path):
    store = ResultStore(tmp_path / "r.jsonl")
    store.append(record("aa"))
    store.append(record("bb", status="failed", index=1))
    assert set(store.completed()) == {"aa"}


def test_truncated_final_line_is_skipped_with_warning(tmp_path, caplog):
    path = tmp_path / "r.jsonl"
    store = ResultStore(path)
    store.append(record("aa"))
    store.append(record("bb", index=1))
    # Simulate a kill -9 mid-write: chop the last record in half.
    text = path.read_text()
    path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])
    with caplog.at_level(logging.WARNING, logger="repro.campaign"):
        loaded = store.load()
    assert [r["fingerprint"] for r in loaded] == ["aa"]
    assert any("corrupt" in message for message in caplog.messages)


def test_corrupt_middle_line_is_skipped(tmp_path, caplog):
    path = tmp_path / "r.jsonl"
    store = ResultStore(path)
    store.append(record("aa"))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("{this is not json\n")
    store.append(record("bb", index=1))
    with caplog.at_level(logging.WARNING, logger="repro.campaign"):
        loaded = store.load()
    assert [r["fingerprint"] for r in loaded] == ["aa", "bb"]
    assert any("corrupt" in message for message in caplog.messages)


def test_record_without_fingerprint_is_skipped(tmp_path, caplog):
    path = tmp_path / "r.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"status": "ok"}) + "\n")
    with caplog.at_level(logging.WARNING, logger="repro.campaign"):
        assert ResultStore(path).load() == []
    assert any("malformed" in message for message in caplog.messages)


def test_append_after_corruption_keeps_working(tmp_path):
    # A truncated tail does not poison later appends: JSONL lines are
    # independent, and resume re-runs the lost task.
    path = tmp_path / "r.jsonl"
    store = ResultStore(path)
    store.append(record("aa"))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"fingerprint": "cc", "status"')  # no newline
    store.append(record("bb", index=1))
    # append() starts on a fresh line, so only the half-written "cc"
    # fragment is lost; "bb" lands intact.
    assert [r["fingerprint"] for r in store.load()] == ["aa", "bb"]
    store.append(record("dd", index=2))
    assert [r["fingerprint"] for r in store.load()] == ["aa", "bb", "dd"]
