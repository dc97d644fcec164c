"""Exact per-phase wall-time attribution from telemetry spans.

:func:`phase_breakdown` folds a registry snapshot's closed spans into
per-phase totals:

* ``total_seconds`` — summed durations of every span with that name
  (a parent's total includes its children);
* ``self_seconds`` — durations minus each span's direct children, so
  self times *partition* the root spans' wall time exactly:
  ``sum(self) == sum(root totals)`` up to float error;
* ``count`` — spans closed under that name.

``repro bench profile`` turns these self-time shares into the per-phase
CI budgets in ``benchmarks/BENCH_profile.json``, and the cluster's
``/debug/profile`` serves the same shape per shard (merged by
:func:`merge_phase_breakdowns` at the front-end).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple

__all__ = ["phase_breakdown", "merge_phase_breakdowns", "hottest_phases"]

Snapshot = Dict[str, list]


def phase_breakdown(snapshot: Snapshot) -> Dict[str, Dict[str, float]]:
    """Per-span-name totals, self times and counts from closed spans."""
    spans = [s for s in snapshot.get("spans", []) if s.get("duration") is not None]
    child_seconds: Dict[Any, float] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None:
            child_seconds[parent] = child_seconds.get(parent, 0.0) + float(span["duration"])
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        duration = float(span["duration"])
        entry = out.setdefault(
            span["name"], {"count": 0, "total_seconds": 0.0, "self_seconds": 0.0}
        )
        entry["count"] += 1
        entry["total_seconds"] += duration
        entry["self_seconds"] += max(duration - child_seconds.get(span["span_id"], 0.0), 0.0)
    return out


def merge_phase_breakdowns(
    breakdowns: Iterable[Dict[str, Dict[str, float]]],
) -> Dict[str, Dict[str, float]]:
    """Sum per-phase breakdowns across shards/processes."""
    merged: Dict[str, Dict[str, float]] = {}
    for breakdown in breakdowns:
        for name, entry in breakdown.items():
            bucket = merged.setdefault(
                name, {"count": 0, "total_seconds": 0.0, "self_seconds": 0.0}
            )
            bucket["count"] += entry.get("count", 0)
            bucket["total_seconds"] += float(entry.get("total_seconds", 0.0))
            bucket["self_seconds"] += float(entry.get("self_seconds", 0.0))
    return merged


def hottest_phases(
    breakdown: Dict[str, Dict[str, float]], n: int = 5
) -> List[Tuple[str, Dict[str, float]]]:
    """The ``n`` phases with the most self time, hottest first."""
    ordered = sorted(
        breakdown.items(), key=lambda item: (-item[1].get("self_seconds", 0.0), item[0])
    )
    return ordered[: max(n, 0)]
