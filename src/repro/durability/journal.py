"""Append-only write-ahead event log (the serving stack's WAL).

Every state change of a durable run — request arrivals, window plans,
realised shares, failures, cumulative energy spend — is appended here *before* it takes effect, so a crash at any
byte offset loses at most the record being written.

Record framing
--------------
One record per line::

    <length:8 hex> <crc32:8 hex> <compact JSON payload>\\n

``length`` is the byte length of the payload, ``crc32`` its checksum
(:func:`zlib.crc32`).  Compact JSON with ``ensure_ascii`` never contains
a raw newline, so lines frame records unambiguously while the file stays
grep-able JSONL.  The fixed-width header makes *any* byte-level
truncation detectable: a torn tail fails the length check, the checksum,
or the terminating newline, and :func:`repair` truncates it away on
open.  Invalid bytes *followed by further valid records* are not a torn
tail — that is corruption, and reading raises
:class:`~repro.utils.errors.JournalCorruptError` rather than silently
dropping committed history.

Segments
--------
A journal is a directory of segment files ``wal-<n>.log`` written in
order.  Rotation is atomic: the full segment is fsynced and closed, then
the next is created exclusively and the directory entry fsynced — a
crash between the two steps just means the next open re-creates the
empty segment.

fsync policy
------------
``fsync="always"`` (default) syncs every commit: a record appended
outside a group is durable when :meth:`JournalWriter.append` returns,
and the records appended inside :meth:`JournalWriter.group` are durable
when the group exits — one fsync for all of them.  ``"rotate"`` syncs
only on rotation/close (a crash may lose the current segment's tail
records but never corrupts earlier ones).  ``"never"`` leaves flushing
to the OS — for tests and throwaway runs.

A group writes exactly the bytes the same appends would write one by
one, so a crash inside it leaves a record-boundary prefix after
:func:`repair` — a disk state the per-record writer can produce too.
Group only records that nothing acts on before the group exits.

Every fsync of the writer is timed into the ``journal_sync_seconds``
histogram and counted in ``journal_syncs_total``; records per sync is
``journal_records_total / journal_syncs_total``.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Tuple, Union

from ..telemetry import get_collector
from ..utils.errors import JournalCorruptError, ValidationError
from ..utils.fileio import fsync_directory
from ..utils.validation import require

__all__ = [
    "FSYNC_POLICIES",
    "SEGMENT_PREFIX",
    "encode_payload",
    "encode_record",
    "decode_stream",
    "JournalWriter",
    "read_events",
    "repair",
    "journal_segments",
]

FSYNC_POLICIES = ("always", "rotate", "never")
SEGMENT_PREFIX = "wal-"
_HEADER_LEN = 18  # "xxxxxxxx xxxxxxxx "
_HEX = frozenset(b"0123456789abcdef")

#: Histogram buckets for one journal fsync (seconds).
_SYNC_BUCKETS = (0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0)


def encode_payload(event: Mapping[str, Any]) -> bytes:
    """One event's canonical payload: compact, key-sorted, ASCII JSON."""
    return json.dumps(event, separators=(",", ":"), sort_keys=True).encode("ascii")


def encode_record(event: Union[Mapping[str, Any], bytes]) -> bytes:
    """Frame one event as a length+checksum JSONL record.

    ``event`` may also be its :func:`encode_payload` bytes, so a caller
    that keeps the payload (a snapshot splices it) encodes it only once.
    """
    payload = event if isinstance(event, bytes) else encode_payload(event)
    return b"%08x %08x " % (len(payload), zlib.crc32(payload)) + payload + b"\n"


def decode_stream(data: bytes) -> Tuple[List[Dict[str, Any]], int]:
    """Decode consecutive valid records from ``data``.

    Returns ``(events, consumed)`` where ``consumed`` is the byte offset
    just past the last valid record.  Decoding stops at the first
    malformed frame (bad header, length mismatch, checksum failure or
    missing newline) — by construction any byte-level prefix of a valid
    journal decodes to a prefix of its events.
    """
    events: List[Dict[str, Any]] = []
    offset = 0
    total = len(data)
    while offset < total:
        header = data[offset : offset + _HEADER_LEN]
        if len(header) < _HEADER_LEN or header[8:9] != b" " or header[17:18] != b" ":
            break
        length_hex, crc_hex = header[:8], header[9:17]
        # int() tolerates signs and whitespace; frame fields are bare hex.
        if not (_HEX.issuperset(length_hex) and _HEX.issuperset(crc_hex)):
            break
        length = int(length_hex, 16)
        crc = int(crc_hex, 16)
        end = offset + _HEADER_LEN + length
        if end + 1 > total or data[end : end + 1] != b"\n":
            break
        payload = data[offset + _HEADER_LEN : end]
        if zlib.crc32(payload) != crc:
            break
        try:
            event = json.loads(payload)
        except ValueError:
            break
        if not isinstance(event, dict):
            break
        events.append(event)
        offset = end + 1
    return events, offset


def journal_segments(directory: Union[str, Path]) -> List[Path]:
    """The journal's segment files, in write order."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(p for p in directory.iterdir() if p.name.startswith(SEGMENT_PREFIX) and p.suffix == ".log")


def _segment_path(directory: Path, index: int) -> Path:
    return directory / f"{SEGMENT_PREFIX}{index:08d}.log"


def _check_tail_is_torn(data: bytes, consumed: int, path: Path) -> None:
    """Distinguish a torn tail (repairable) from mid-file corruption.

    If the bytes past the first invalid frame still contain a valid
    record after the next newline, committed history follows the damage
    — refusing is the only safe answer.
    """
    rest = data[consumed:]
    newline = rest.find(b"\n")
    while newline != -1:
        events, _ = decode_stream(rest[newline + 1 :])
        if events:
            raise JournalCorruptError(
                f"{path}: invalid record at byte {consumed} is followed by valid records — "
                "this is corruption, not a torn tail; refusing to repair"
            )
        newline = rest.find(b"\n", newline + 1)


def repair(directory: Union[str, Path]) -> int:
    """Truncate the torn tail of the journal's last segment, in place.

    Returns the number of bytes dropped (0 for a clean journal).  A
    non-final segment with a torn tail, or invalid bytes followed by
    valid records, raises :class:`JournalCorruptError`.
    """
    segments = journal_segments(directory)
    dropped = 0
    for i, segment in enumerate(segments):
        data = segment.read_bytes()
        _, consumed = decode_stream(data)
        if consumed == len(data):
            continue
        _check_tail_is_torn(data, consumed, segment)
        if i != len(segments) - 1:
            raise JournalCorruptError(
                f"{segment}: torn tail in a non-final segment (later segments exist) — "
                "refusing to repair"
            )
        dropped = len(data) - consumed
        with segment.open("r+b") as fh:
            fh.truncate(consumed)
            fh.flush()
            os.fsync(fh.fileno())
    return dropped


def read_events(directory: Union[str, Path]) -> List[Dict[str, Any]]:
    """All committed events across segments, torn tail (if any) excluded.

    Tolerates exactly the damage a crash can cause — a truncated last
    segment; anything else raises :class:`JournalCorruptError`.
    """
    events: List[Dict[str, Any]] = []
    segments = journal_segments(directory)
    for i, segment in enumerate(segments):
        data = segment.read_bytes()
        decoded, consumed = decode_stream(data)
        if consumed != len(data):
            _check_tail_is_torn(data, consumed, segment)
            if i != len(segments) - 1:
                raise JournalCorruptError(f"{segment}: torn tail in a non-final segment")
        events.extend(decoded)
    return events


class JournalWriter:
    """Single-writer append handle over a journal directory.

    Opening an existing journal first repairs its torn tail (crash
    recovery), then appends to the last segment — a resumed run
    continues the same history.  Not thread-safe: one writer per journal
    directory, by design (it is a WAL, not a message bus).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        fsync: str = "always",
        segment_max_bytes: int = 1 << 20,
    ):
        if fsync not in FSYNC_POLICIES:
            raise ValidationError(f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}")
        require(segment_max_bytes > 0, f"segment_max_bytes must be > 0, got {segment_max_bytes}")
        self.directory = Path(directory)
        self.fsync_policy = fsync
        self.segment_max_bytes = int(segment_max_bytes)
        self._grouped = False
        self.directory.mkdir(parents=True, exist_ok=True)
        repair(self.directory)
        segments = journal_segments(self.directory)
        self._record_count = sum(len(decode_stream(p.read_bytes())[0]) for p in segments)
        if segments:
            self._segment_index = int(segments[-1].name[len(SEGMENT_PREFIX) : -len(".log")])
            self._fh = segments[-1].open("ab")
        else:
            self._segment_index = 1
            self._fh = _segment_path(self.directory, 1).open("xb")
            fsync_directory(self.directory)

    @property
    def record_count(self) -> int:
        """Records committed to this journal (all segments), so far."""
        return self._record_count

    @property
    def segment_path(self) -> Path:
        """The segment currently being appended to."""
        return _segment_path(self.directory, self._segment_index)

    def append(self, event: Union[Mapping[str, Any], bytes]) -> int:
        """Append one event; returns its absolute record index.

        ``event`` may be its :func:`encode_payload` bytes instead.

        Outside a :meth:`group`, the record is flushed (and, under
        ``fsync="always"``, synced) before this returns; inside one, both
        wait for the group to exit.
        """
        if self._fh.closed:
            raise ValidationError("journal writer is closed")
        record = encode_record(event)
        self._fh.write(record)
        if not self._grouped:
            self._commit()
        index = self._record_count
        self._record_count += 1
        get_collector().counter("journal_records_total").inc()
        if self._fh.tell() >= self.segment_max_bytes:
            self.rotate()
        return index

    @contextmanager
    def group(self) -> Iterator["JournalWriter"]:
        """Commit every record appended inside the block at once.

        Inside the group, :meth:`append` writes its framed record (the
        record count and rotation are unchanged) but defers the flush
        and fsync.  Leaving the group, normally or through an exception,
        flushes; under ``fsync="always"`` it also syncs, once.  Groups
        cannot be nested.
        """
        if self._grouped:
            raise ValidationError("journal groups cannot be nested")
        self._grouped = True
        try:
            yield self
        finally:
            self._grouped = False
            if not self._fh.closed:
                self._commit()

    def _commit(self) -> None:
        self._fh.flush()
        if self.fsync_policy == "always":
            self._fsync()

    def _fsync(self) -> None:
        start = time.perf_counter()
        os.fsync(self._fh.fileno())
        tele = get_collector()
        tele.histogram("journal_sync_seconds", buckets=_SYNC_BUCKETS).observe(time.perf_counter() - start)
        tele.counter("journal_syncs_total").inc()

    def sync(self) -> None:
        """Force the current segment to stable storage."""
        if not self._fh.closed:
            self._fh.flush()
            self._fsync()

    def rotate(self) -> Path:
        """Seal the current segment and start the next one atomically."""
        self.sync()
        self._fh.close()
        self._segment_index += 1
        self._fh = _segment_path(self.directory, self._segment_index).open("xb")
        fsync_directory(self.directory)
        get_collector().counter("journal_segments_total").inc()
        return self.segment_path

    def close(self) -> None:
        if not self._fh.closed:
            if self.fsync_policy != "never":
                self.sync()
            self._fh.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"JournalWriter({str(self.directory)!r}, records={self._record_count}, "
            f"segment={self._segment_index}, fsync={self.fsync_policy!r})"
        )
