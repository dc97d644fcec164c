"""The energy ledger of a serving process: one record per served solve."""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from .journal import JournalWriter, encode_record
from .recovery import recover
from .snapshot import SnapshotStore

__all__ = ["SolveJournal"]


class SolveJournal:
    """Recover, then journal every served solve's energy (thread-safe).

    Both servers keep one: the single-process server, and each cluster
    shard for its shard.  Opening recovers the previous incarnation's
    spend and writes ``run_start`` (empty journal) or ``resume`` (with
    the recovered ``cum_energy``).  Each solve appends a ``solve`` record
    with its energy and the running ``cum_energy``, under one lock so the
    chain is strictly ordered; every ``snapshot_every`` solves a snapshot
    bounds the next replay.  ``meta`` names the writer in ``run_start``,
    ``resume`` and snapshots; ``tags`` are stamped into each ``solve``
    record.  Snapshots are synced unless ``fsync`` is ``"never"``.
    Without a directory only the running total is kept.
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]],
        meta: Mapping[str, Any],
        *,
        fsync: str = "always",
        snapshot_every: int = 10,
        tags: Optional[Mapping[str, Any]] = None,
    ):
        self.meta = dict(meta)
        self.tags = dict(tags or {})
        self.snapshot_every = int(snapshot_every)
        self.energy_spent = 0.0
        self._writer: Optional[JournalWriter] = None
        self._snapshots: Optional[SnapshotStore] = None
        self._since_snapshot = 0
        self._lock = threading.Lock()
        if directory is None:
            return
        state = recover(directory)
        self._writer = JournalWriter(directory, fsync=fsync)
        self._snapshots = SnapshotStore(directory, fsync=fsync != "never")
        self.energy_spent = state.energy_spent
        if state.total_records:
            self._writer.append({"type": "resume", "meta": self.meta, "cum_energy": self.energy_spent})
        else:
            self._writer.append({"type": "run_start", "meta": self.meta})

    def record_solve(self, scheduler: str, energy: float, trace_id: Optional[str] = None) -> None:
        """Add one solve's energy to the ledger; durable before this returns."""
        with self._lock:
            self.energy_spent += float(energy)
            if self._writer is None:
                return
            record: Dict[str, Any] = {
                "type": "solve",
                **self.tags,
                "scheduler": scheduler,
                "energy": float(energy),
                "cum_energy": self.energy_spent,
            }
            if trace_id is not None:
                record["trace_id"] = trace_id
            self._writer.append(record)
            self._since_snapshot += 1
            if self.snapshot_every > 0 and self._since_snapshot >= self.snapshot_every:
                # Under the same lock: the snapshot must capture a settled ledger.
                assert self._snapshots is not None
                self._snapshots.save(
                    {"meta": self.meta, "windows": [], "cum_energy": self.energy_spent},
                    journal_records=self._writer.record_count,
                )
                self._since_snapshot = 0

    @property
    def record_count(self) -> int:
        """Records in the write-ahead log (0 without a directory)."""
        return self._writer.record_count if self._writer is not None else 0

    def tear_tail(self, record: Dict[str, Any]) -> None:
        """Write the first half of ``record``'s frame and no more.

        Fault injection only: it leaves the torn tail a crash mid-append
        would, for recovery to repair.
        """
        if self._writer is not None:
            frame = encode_record(record)
            self._writer._fh.write(frame[: max(len(frame) // 2, 4)])
            self._writer._fh.flush()

    def append(self, record: Dict[str, Any]) -> None:
        """Journal a record of another type (``recover`` skips foreign types)."""
        if self._writer is not None:
            with self._lock:
                self._writer.append(record)

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
