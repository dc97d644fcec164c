"""Periodic atomic snapshots of durable-run state.

Replaying a long journal from record zero is correct but slow;
checkpoints bound recovery time.  A snapshot is one JSON document
holding the run's accumulated state *plus* the journal position it
covers (``journal_records``) — recovery loads the newest usable
snapshot and replays only the journal suffix past it.

A snapshot file is the canonical compact JSON of its document
(sorted keys, no whitespace) — the encoding of journal payloads, so a
:class:`~repro.durability.run.DurableRun` splices its already-journaled
``window_done`` payloads into the snapshot instead of re-encoding them.

Writes go through :func:`repro.utils.atomic_write` (write-temp + fsync
+ rename), so a crash mid-snapshot leaves the previous snapshot intact
and never a truncated one under a valid name.  Snapshots are
self-describing (``format``/``version`` header, like
:mod:`repro.core.serialization`) and loaders reject unknown versions.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from ..telemetry import get_collector
from ..utils.errors import ValidationError
from ..utils.fileio import atomic_write
from ..utils.validation import check_nonnegative, require
from .journal import encode_payload

__all__ = ["SNAPSHOT_FORMAT", "SNAPSHOT_VERSION", "SnapshotStore"]

SNAPSHOT_FORMAT = "repro.snapshot"
SNAPSHOT_VERSION = 1
_PREFIX = "snapshot-"

#: Histogram buckets for snapshot write latency (seconds).
_DURATION_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)


class SnapshotStore:
    """Atomic snapshot files ``snapshot-<seq>.json`` in one directory."""

    def __init__(self, directory: Union[str, Path], *, keep: int = 2, fsync: bool = True):
        require(keep >= 1, f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.keep = int(keep)
        self.fsync = bool(fsync)
        self.directory.mkdir(parents=True, exist_ok=True)

    def paths(self) -> List[Path]:
        """Snapshot files in sequence order."""
        return sorted(
            p
            for p in self.directory.iterdir()
            if p.name.startswith(_PREFIX) and p.suffix == ".json"
        )

    def _next_sequence(self) -> int:
        paths = self.paths()
        if not paths:
            return 1
        return int(paths[-1].name[len(_PREFIX) : -len(".json")]) + 1

    def save(self, state: Union[Mapping[str, Any], bytes], *, journal_records: int) -> Path:
        """Persist ``state`` covering the first ``journal_records`` records.

        ``state`` may also be its canonical JSON bytes (compact, sorted
        keys, as :func:`~repro.durability.journal.encode_payload` writes),
        so a caller holding already-encoded parts splices them instead of
        re-encoding them.  Either way the file is the canonical compact
        JSON of the whole document.
        """
        check_nonnegative(journal_records, "journal_records")
        body = state if isinstance(state, bytes) else encode_payload(state)
        # The document's keys in sorted order: format, journal_records, state, version.
        document = b'{"format":%s,"journal_records":%d,"state":%s,"version":%d}' % (
            json.dumps(SNAPSHOT_FORMAT).encode("ascii"),
            int(journal_records),
            body,
            SNAPSHOT_VERSION,
        )
        path = self.directory / f"{_PREFIX}{self._next_sequence():08d}.json"
        start = time.perf_counter()
        atomic_write(path, document, fsync=self.fsync)
        tele = get_collector()
        tele.histogram("snapshot_duration_seconds", buckets=_DURATION_BUCKETS).observe(
            time.perf_counter() - start
        )
        tele.counter("snapshots_written_total").inc()
        self.prune()
        return path

    def prune(self) -> int:
        """Drop all but the newest ``keep`` snapshots; returns how many."""
        paths = self.paths()
        stale = paths[: -self.keep] if len(paths) > self.keep else []
        for path in stale:
            path.unlink(missing_ok=True)
        return len(stale)

    def load(self, path: Union[str, Path]) -> Dict[str, Any]:
        """Read one snapshot document, validating its header."""
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict) or data.get("format") != SNAPSHOT_FORMAT:
            raise ValidationError(f"{path}: not a {SNAPSHOT_FORMAT} document")
        if data.get("version") != SNAPSHOT_VERSION:
            raise ValidationError(
                f"{path}: unsupported snapshot version {data.get('version')!r} "
                f"(expected {SNAPSHOT_VERSION})"
            )
        return data

    def latest(self, *, max_journal_records: Optional[int] = None) -> Optional[Dict[str, Any]]:
        """The newest loadable snapshot, or ``None``.

        ``max_journal_records`` skips snapshots claiming to cover more
        journal records than actually exist (possible when a journal was
        truncated by a crash after the snapshot was written) — recovery
        must then fall back to an older snapshot or a full replay.
        Unreadable or torn candidates are skipped, not fatal: the
        journal alone is always sufficient.
        """
        for path in reversed(self.paths()):
            try:
                document = self.load(path)
            except (OSError, ValueError):
                continue  # half-written by a crash without atomic_write, or foreign
            if (
                max_journal_records is not None
                and document["journal_records"] > max_journal_records
            ):
                continue
            return document
        return None
