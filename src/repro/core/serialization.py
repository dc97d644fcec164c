"""JSON (de)serialisation of the core data model.

Instances and schedules round-trip through plain dicts / JSON files so
that experiment inputs can be archived, shared, and replayed — a
production necessity the in-memory model alone does not cover.

The format is versioned; loaders reject unknown versions rather than
guessing.  All quantities are stored in SI units (FLOP, s, J, W) exactly
as held in memory, so round-trips are bit-faithful.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path
from typing import Any, Dict, Union

import numpy as np

from ..utils.errors import ValidationError
from ..utils.fileio import atomic_write
from ..utils.validation import require
from .instance import ProblemInstance
from .machine import Cluster, Machine
from .schedule import Schedule
from .task import TaskSet

__all__ = [
    "FORMAT_VERSION",
    "cluster_to_dict",
    "cluster_from_dict",
    "instance_to_dict",
    "instance_from_dict",
    "save_instance",
    "load_instance",
    "schedule_to_dict",
    "schedule_from_dict",
    "save_schedule",
    "load_schedule",
]

FORMAT_VERSION = 1


def cluster_to_dict(cluster: Cluster) -> list:
    """Serialise a cluster as a JSON-ready machine list."""
    return [
        {
            "speed": m.speed,
            "efficiency": m.efficiency,
            "name": m.name,
            "idle_power": m.idle_power,
        }
        for m in cluster
    ]


def cluster_from_dict(machines: list) -> Cluster:
    """Rebuild a cluster from :func:`cluster_to_dict` output."""
    return Cluster(
        [
            Machine(
                speed=m["speed"],
                efficiency=m["efficiency"],
                name=m.get("name"),
                idle_power=m.get("idle_power", 0.0),
            )
            for m in machines
        ]
    )


def instance_to_dict(instance: ProblemInstance) -> Dict[str, Any]:
    """Serialise a problem instance to a JSON-ready dict (from the task rows)."""
    tasks = instance.tasks
    return {
        "format": "repro.instance",
        "version": FORMAT_VERSION,
        "budget": instance.budget if math.isfinite(instance.budget) else "inf",
        "machines": cluster_to_dict(instance.cluster),
        "tasks": [
            {
                "deadline": deadline,
                "name": name,
                "accuracy": {"breakpoints": bp[: k + 1], "accuracies": acc[: k + 1]},
            }
            for deadline, name, k, bp, acc in zip(
                tasks.deadlines.tolist(),
                tasks.names,
                tasks.n_segments.tolist(),
                tasks.breakpoints.tolist(),
                tasks.breakpoint_accuracies.tolist(),
            )
        ],
    }


def _length(row: Any) -> int:
    """A row's length; 0 for a non-sequence, which the checks then reject."""
    try:
        return len(row)
    except TypeError:
        return 0


def _padded(rows: list, lengths: np.ndarray) -> np.ndarray:
    """Stack ragged numeric rows into one matrix; the padding is ``+inf``."""
    points = np.arange(int(lengths.max()))[None, :] < lengths[:, None]
    out = np.full(points.shape, np.inf)
    try:
        out[points] = np.fromiter(chain.from_iterable(rows), dtype=float, count=int(lengths.sum()))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"accuracy rows must hold numbers: {exc}") from None
    return out


def _check_header(data: Dict[str, Any], expected: str) -> None:
    if not isinstance(data, dict) or data.get("format") != expected:
        raise ValidationError(f"not a {expected} document")
    if data.get("version") != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported {expected} version {data.get('version')!r} (expected {FORMAT_VERSION})"
        )


def instance_from_dict(data: Dict[str, Any]) -> ProblemInstance:
    """Rebuild a problem instance from :func:`instance_to_dict` output.

    The task rows are stacked into padded matrices (tasks may differ in
    their number of pieces) and validated once by
    :meth:`TaskSet.from_arrays`.
    """
    _check_header(data, "repro.instance")
    cluster = cluster_from_dict(data["machines"])
    rows = data["tasks"]
    bps = [t["accuracy"]["breakpoints"] for t in rows]
    accs = [t["accuracy"]["accuracies"] for t in rows]
    lengths = np.array([_length(b) for b in bps], dtype=np.int64)
    require(lengths.size >= 1, "a task set needs at least one task")
    require(
        all(_length(a) == k for a, k in zip(accs, lengths.tolist())),
        "every task needs as many accuracies as breakpoints",
    )
    require(int(lengths.min()) >= 2, "need at least two breakpoints (one segment)")
    try:
        deadlines = np.array([t["deadline"] for t in rows], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"deadlines must be numbers: {exc}") from None
    tasks = TaskSet.from_arrays(
        deadlines,
        _padded(bps, lengths),
        _padded(accs, lengths),
        n_segments=lengths - 1,
        names=[t.get("name") for t in rows],
    )
    budget = data["budget"]
    return ProblemInstance(tasks, cluster, math.inf if budget == "inf" else float(budget))


def save_instance(instance: ProblemInstance, path: Union[str, Path]) -> None:
    """Write an instance as JSON (atomically — a crash never corrupts it)."""
    atomic_write(path, json.dumps(instance_to_dict(instance), indent=2))


def load_instance(path: Union[str, Path]) -> ProblemInstance:
    """Read an instance written by :func:`save_instance`."""
    return instance_from_dict(json.loads(Path(path).read_text()))


def schedule_to_dict(schedule: Schedule, *, embed_instance: bool = True) -> Dict[str, Any]:
    """Serialise a schedule (optionally with its instance inline)."""
    out: Dict[str, Any] = {
        "format": "repro.schedule",
        "version": FORMAT_VERSION,
        "times": np.asarray(schedule.times).tolist(),
    }
    if embed_instance:
        out["instance"] = instance_to_dict(schedule.instance)
    return out


def schedule_from_dict(
    data: Dict[str, Any], instance: Union[ProblemInstance, None] = None
) -> Schedule:
    """Rebuild a schedule; the instance comes inline or as an argument."""
    _check_header(data, "repro.schedule")
    if instance is None:
        if "instance" not in data:
            raise ValidationError("schedule document has no embedded instance; pass one explicitly")
        instance = instance_from_dict(data["instance"])
    times = np.asarray(data["times"], dtype=float)
    return Schedule(instance, times)


def save_schedule(schedule: Schedule, path: Union[str, Path], *, embed_instance: bool = True) -> None:
    """Write a schedule (and by default its instance) as JSON, atomically."""
    atomic_write(path, json.dumps(schedule_to_dict(schedule, embed_instance=embed_instance), indent=2))


def load_schedule(path: Union[str, Path], instance: Union[ProblemInstance, None] = None) -> Schedule:
    """Read a schedule written by :func:`save_schedule`."""
    return schedule_from_dict(json.loads(Path(path).read_text()), instance)
