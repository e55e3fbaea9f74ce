"""Durable result store: append-only JSONL keyed by task fingerprint.

One JSON object per line, flushed and fsync'd per append, so a crashed or
killed campaign loses at most the record being written.  A truncated or
otherwise corrupt line — the expected wreckage of a mid-write ``kill -9``
— is skipped with a warning on load, never a crash; ``campaign resume``
then simply re-runs that one task.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Dict, List

logger = logging.getLogger("repro.campaign")

#: Schema marker written into every record; bump on breaking changes.
STORE_VERSION = 1


class ResultStore:
    """Append-only JSONL file of task records."""

    def __init__(self, path):
        self.path = Path(path)

    def exists_nonempty(self) -> bool:
        """True when the file already holds data (run vs resume guard)."""
        try:
            return self.path.stat().st_size > 0
        except FileNotFoundError:
            return False

    def load(self) -> List[dict]:
        """All intact records, in file order; corrupt lines are skipped."""
        if not self.path.exists():
            return []
        records = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    logger.warning(
                        "%s:%d: skipping corrupt/truncated record "
                        "(the task will be re-run on resume)",
                        self.path, lineno)
                    continue
                if not isinstance(record, dict) or \
                        "fingerprint" not in record:
                    logger.warning(
                        "%s:%d: skipping malformed record (no fingerprint)",
                        self.path, lineno)
                    continue
                records.append(record)
        return records

    def completed(self) -> Dict[str, dict]:
        """fingerprint -> record for tasks that finished OK (last wins).

        Failed records are *not* included: resume re-runs failed tasks but
        never completed work.
        """
        return {record["fingerprint"]: record
                for record in self.load() if record.get("status") == "ok"}

    def append(self, record: dict) -> None:
        """Durably append one record (flush + fsync).

        If a previous writer died mid-line (no trailing newline), start on
        a fresh line so the new record is not welded onto the wreckage.
        """
        record.setdefault("store_version", STORE_VERSION)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        needs_newline = False
        try:
            with open(self.path, "rb") as handle:
                handle.seek(-1, os.SEEK_END)
                needs_newline = handle.read(1) != b"\n"
        except (FileNotFoundError, OSError):
            pass
        with open(self.path, "a", encoding="utf-8") as handle:
            if needs_newline:
                handle.write("\n")
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())


def make_record(task_wire: dict, outcome: dict) -> dict:
    """Build the stored record for one finished (ok or failed) task."""
    ok = outcome.get("status") == "ok"
    return {
        "fingerprint": task_wire["fingerprint"],
        "campaign": task_wire["campaign"],
        "experiment": task_wire["experiment"],
        "index": task_wire["index"],
        "base": task_wire["base"],
        "point": task_wire["point"],
        "seed": task_wire["seed"],
        "status": "ok" if ok else "failed",
        "failure": None if ok else outcome.get("status"),
        "error": outcome.get("error"),
        "elapsed_s": outcome.get("elapsed_s"),
        "rows": outcome.get("rows"),
        "trace_file": outcome.get("trace_file"),
    }

