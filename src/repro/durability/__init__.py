"""Crash-safe journaling, snapshot/restore, and deterministic recovery.

The serving stack's answer to the question PR 2 left open: machines can
fail and the planner survives — but what if the *planner process* dies?
Without durable state, every buffered request, realised share and spent
joule vanishes, and a restarted planner that forgets realised spend
silently violates the paper's global energy budget ``B``.

Four parts, layered:

* :mod:`~repro.durability.journal` — an append-only write-ahead log
  (length+checksum-framed JSONL, fsync policy, atomic segment rotation,
  torn-tail truncation on open);
* :mod:`~repro.durability.snapshot` — periodic atomic checkpoints
  (write-temp + fsync + rename) bounding recovery time;
* :mod:`~repro.durability.recovery` — snapshot + journal-suffix replay,
  plus certification of the recovered state (spend ≤ ``B``, cumulative
  ledger consistent, deadline-prefix and work-cap invariants);
* :mod:`~repro.durability.crashtest` — the adversarial proof: kill a
  run at arbitrary journal bytes (mid-record included), recover, resume,
  and demand bit-identical outcomes.

:class:`~repro.durability.run.DurableRun` ties them into the library's
one rolling-horizon serving loop, the one that carries the global
budget; with ``journal_dir=None`` it writes nothing.
:class:`repro.online.planner.RollingHorizonPlanner` (``run`` and
``run_durable``) and ``repro online`` reach it.
:class:`~repro.durability.solve_journal.SolveJournal` is the per-solve
energy ledger of both servers (``repro serve --journal-dir`` and each
cluster shard).
"""

from .crashtest import CrashTestConfig, CrashTestResult, KillOutcome, run_crash_test
from .journal import (
    FSYNC_POLICIES,
    JournalWriter,
    decode_stream,
    encode_record,
    journal_segments,
    read_events,
    repair,
)
from .recovery import RecoveredState, audit, certify, recover
from .run import DurableReport, DurableRun, DurableWindow
from .snapshot import SnapshotStore
from .solve_journal import SolveJournal

__all__ = [
    "FSYNC_POLICIES",
    "JournalWriter",
    "encode_record",
    "decode_stream",
    "read_events",
    "repair",
    "journal_segments",
    "SnapshotStore",
    "SolveJournal",
    "RecoveredState",
    "recover",
    "audit",
    "certify",
    "DurableWindow",
    "DurableReport",
    "DurableRun",
    "CrashTestConfig",
    "KillOutcome",
    "CrashTestResult",
    "run_crash_test",
]
