"""Deterministic recovery: latest snapshot + journal-suffix replay.

:func:`recover` rebuilds a durable run's state from its directory: load
the newest usable snapshot (if any), then fold every journal record past
it.  The result is exactly the state the process held when it last
appended a record — realised windows and cumulative energy spend
against the global budget ``B`` — so a restarted run *continues*
instead of silently forgetting spent joules.

:func:`audit` / :func:`certify` then check the recovered state against
the invariants the paper's model guarantees for an uninterrupted run:

* cumulative energy spend never exceeds ``B`` (at any prefix, not just
  the end);
* the per-window cumulative-spend chain is consistent
  (``cum_k = cum_{k-1} + energy_k``);
* window indices are contiguous from zero — no committed window is
  missing;
* within every window, tasks are deadline-ordered (the EDF prefix
  ordering all schedulers assume) and no task received more work than
  its recorded work cap (its accuracy curve's ``f_max``).

Determinism is the contract that makes all this meaningful: a run
resumed from ``recover()`` replays completed windows from the journal
verbatim and re-solves the rest from the same seeds
(:mod:`repro.utils.rng`), so its final report is bit-identical to an
uninterrupted run — :mod:`repro.durability.crashtest` asserts exactly
that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..telemetry import get_collector
from ..utils.errors import RecoveryError
from .journal import read_events
from .snapshot import SnapshotStore

__all__ = ["RecoveredState", "recover", "audit", "certify"]


@dataclass(frozen=True)
class RecoveredState:
    """Everything a restarted run needs to continue a journaled one."""

    meta: Dict[str, Any]  #: the run_start metadata (scheduler, seed, budget, ...)
    windows: tuple  #: committed window_done payloads, in window order
    energy_spent: float  #: cumulative realised energy (J), the budget's ledger
    next_window: int  #: first window index the resumed run must plan
    counts: Dict[str, int] = field(default_factory=dict)  #: replayed events by type
    replayed_records: int = 0  #: journal records folded on top of the snapshot
    total_records: int = 0  #: committed records in the journal overall
    snapshot_records: int = 0  #: records covered by the snapshot used (0: none)

    @property
    def used_snapshot(self) -> bool:
        return self.snapshot_records > 0


def recover(directory: Union[str, Path]) -> RecoveredState:
    """Rebuild run state from a journal directory (snapshot + suffix).

    Torn journal tails are tolerated (the crash case); snapshots that
    claim to cover more records than the journal holds are skipped.  An
    empty or missing journal recovers to the pristine state.
    """
    events = read_events(directory)
    snapshot = SnapshotStore(directory).latest(max_journal_records=len(events))

    windows: List[Dict[str, Any]] = []
    meta: Dict[str, Any] = {}
    cum_energy = 0.0
    base = 0
    if snapshot is not None:
        state = snapshot["state"]
        meta = dict(state.get("meta", {}))
        windows = [dict(w) for w in state.get("windows", [])]
        cum_energy = float(state.get("cum_energy", 0.0))
        base = int(snapshot["journal_records"])

    counts: Dict[str, int] = {}
    seen = {int(w["window"]) for w in windows}
    for event in events[base:]:
        kind = str(event.get("type", "?"))
        counts[kind] = counts.get(kind, 0) + 1
        if kind == "run_start":
            meta = dict(event.get("meta", {}))
        elif kind == "window_done":
            index = int(event["window"])
            if index not in seen:  # duplicates cannot commit twice
                seen.add(index)
                windows.append(dict(event))
            cum_energy = float(event.get("cum_energy", cum_energy))
        elif kind in ("solve", "energy"):
            cum_energy = float(event.get("cum_energy", cum_energy))

    windows.sort(key=lambda w: int(w["window"]))
    replayed = len(events) - base
    get_collector().counter("recovery_replayed_records").add(replayed)
    return RecoveredState(
        meta=meta,
        windows=tuple(windows),
        energy_spent=cum_energy,
        next_window=int(windows[-1]["window"]) + 1 if windows else 0,
        counts=counts,
        replayed_records=replayed,
        total_records=len(events),
        snapshot_records=base,
    )


def _tol(reference: float, rel_tol: float) -> float:
    return rel_tol * max(abs(reference), 1.0)


def audit(
    state: RecoveredState, *, budget: Optional[float] = None, rel_tol: float = 1e-9
) -> List[str]:
    """Invariant violations in a recovered state (empty list: certified).

    ``budget`` is the global energy budget ``B``; omitted, it is taken
    from the recovered run metadata when present.
    """
    violations: List[str] = []
    if budget is None:
        budget = state.meta.get("energy_budget")
    if budget is not None and not math.isfinite(float(budget)):
        budget = None

    previous_cum = 0.0
    for position, window in enumerate(state.windows):
        index = int(window["window"])
        label = f"window {index}"
        if index != position:
            violations.append(f"{label}: expected index {position} — committed history has a gap")
        energy = float(window.get("energy", 0.0))
        cum = float(window.get("cum_energy", energy))
        if energy < -_tol(energy, rel_tol):
            violations.append(f"{label}: negative energy {energy!r}")
        if abs(cum - (previous_cum + energy)) > _tol(cum, rel_tol):
            violations.append(
                f"{label}: cumulative-energy chain broken "
                f"({previous_cum!r} + {energy!r} != {cum!r})"
            )
        if budget is not None and cum > float(budget) + _tol(float(budget), rel_tol):
            violations.append(
                f"{label}: cumulative energy {cum!r} exceeds budget {float(budget)!r}"
            )
        previous_cum = cum

        deadlines = window.get("deadlines", [])
        flops = window.get("flops", [])
        caps = window.get("caps", [])
        if any(b < a - rel_tol for a, b in zip(deadlines, deadlines[1:])):
            violations.append(f"{label}: tasks not deadline-ordered (EDF prefix broken)")
        if len(flops) != len(deadlines) or (caps and len(caps) != len(flops)):
            violations.append(f"{label}: per-task arrays disagree in length")
        for j, work in enumerate(flops):
            if work < -rel_tol:
                violations.append(f"{label}: task {j} has negative work {work!r}")
            if caps and j < len(caps) and work > caps[j] + _tol(caps[j], rel_tol):
                violations.append(
                    f"{label}: task {j} work {work!r} exceeds its cap {caps[j]!r}"
                )

    if budget is not None and state.energy_spent > float(budget) + _tol(float(budget), rel_tol):
        violations.append(
            f"recovered energy spend {state.energy_spent!r} exceeds budget {float(budget)!r}"
        )
    return violations


def certify(
    state: RecoveredState, *, budget: Optional[float] = None, rel_tol: float = 1e-9
) -> RecoveredState:
    """Raise :class:`RecoveryError` unless the recovered state is sound."""
    violations = audit(state, budget=budget, rel_tol=rel_tol)
    if violations:
        raise RecoveryError(
            "recovered state failed certification: " + "; ".join(violations)
        )
    return state
