"""Graceful degradation under energy pressure: compress harder, then shed.

When realised energy spend runs ahead of plan (slowdowns stretch busy
time, replans burn budget, traffic bursts), a serving system should not
fail whole windows — it should *degrade*: compressible inference tasks
can simply be compressed harder (tightened per-task work caps), and only
under extreme pressure should the lowest-value tasks be shed.

:class:`DegradationPolicy` encodes that as budget-fraction watermarks::

    policy = DegradationPolicy((
        Watermark(0.70, work_cap_scale=0.75),
        Watermark(0.85, work_cap_scale=0.50),
        Watermark(0.95, work_cap_scale=0.35, shed_fraction=0.25),
    ))
    degraded = policy.apply(instance, spent_fraction=0.9)

Crossing a watermark truncates every task's accuracy curve at
``work_cap_scale × f_max`` (:func:`cap_work`) — the scheduler then
cannot spend more than the cap on any task, i.e. every task runs a
harder-compressed model.
The deepest watermark may also set ``shed_fraction``: that fraction of
tasks (lowest marginal accuracy per FLOP first, i.e. smallest θ) is
dropped from the instance entirely.  At least one task always survives —
degradation never sheds the whole window.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..core.accuracy import PiecewiseLinearAccuracy
from ..core.instance import ProblemInstance
from ..core.task import TaskSet
from ..telemetry import get_collector
from ..utils.validation import check_fraction, require

__all__ = [
    "Watermark",
    "DegradeDecision",
    "DegradationPolicy",
    "truncate_accuracy",
    "cap_work",
    "expand_times",
]


def truncate_accuracy(acc: PiecewiseLinearAccuracy, cap_flops: float) -> PiecewiseLinearAccuracy:
    """Cap an accuracy curve at ``cap_flops`` of work.

    The truncated curve agrees with ``acc`` on ``[0, cap]`` and ends
    there, so a scheduler consuming it cannot allocate more than ``cap``
    FLOP to the task.  A cap at or beyond ``f_max`` returns the curve
    unchanged.
    """
    require(cap_flops > 0, f"cap_flops must be > 0, got {cap_flops}")
    if cap_flops >= acc.f_max:
        return acc
    keep = acc.breakpoints < cap_flops * (1.0 - 1e-12)
    points = np.concatenate([acc.breakpoints[keep], [cap_flops]])
    values = np.concatenate([acc.breakpoint_accuracies[keep], [acc.value(cap_flops)]])
    return PiecewiseLinearAccuracy(points, values)


def cap_work(
    instance: ProblemInstance, caps: Sequence[float], kept: Optional[Sequence[int]] = None
) -> ProblemInstance:
    """Cap each task's work at its own FLOP cap: a harder compression.

    ``caps[i]`` caps the i-th task of ``kept`` (of every task when
    ``kept`` is ``None``); the other tasks are dropped.  Each cap is
    clamped to ``(0, f_max]``, so a cap at or beyond ``f_max`` leaves its
    task's curve as it is.  Deadlines, cluster and budget are unchanged.
    """
    rows = range(instance.n_tasks) if kept is None else kept
    tasks = [instance.tasks[int(j)] for j in rows]
    require(len(caps) == len(tasks), f"need one cap per task, got {len(caps)} for {len(tasks)}")
    capped = [
        dataclasses.replace(
            task, accuracy=truncate_accuracy(task.accuracy, min(max(float(cap), 1e-12), task.f_max))
        )
        for task, cap in zip(tasks, caps)
    ]
    return ProblemInstance(TaskSet(capped, assume_sorted=True), instance.cluster, instance.budget)


@dataclass(frozen=True)
class Watermark:
    """One degradation level, active from ``budget_fraction`` spend on."""

    budget_fraction: float  #: activates when spent/total >= this
    work_cap_scale: float  #: per-task work caps become scale × f_max
    shed_fraction: float = 0.0  #: fraction of tasks to shed (lowest θ first)

    def __post_init__(self) -> None:
        check_fraction(self.budget_fraction, "budget_fraction")
        require(0.0 < self.work_cap_scale <= 1.0, f"work_cap_scale must lie in (0, 1], got {self.work_cap_scale}")
        require(0.0 <= self.shed_fraction < 1.0, f"shed_fraction must lie in [0, 1), got {self.shed_fraction}")

    def to_dict(self) -> dict:
        """JSON-ready form (journaled by repro.durability)."""
        return {
            "budget_fraction": self.budget_fraction,
            "work_cap_scale": self.work_cap_scale,
            "shed_fraction": self.shed_fraction,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Watermark":
        return cls(
            budget_fraction=float(data["budget_fraction"]),
            work_cap_scale=float(data["work_cap_scale"]),
            shed_fraction=float(data.get("shed_fraction", 0.0)),
        )


@dataclass(frozen=True)
class DegradeDecision:
    """What a policy did to one instance."""

    instance: ProblemInstance
    kept: np.ndarray  #: original task indices surviving in ``instance``
    level: int  #: watermark index applied (−1: no degradation)
    work_cap_scale: float
    shed: Tuple[int, ...]  #: original task indices shed

    @property
    def degraded(self) -> bool:
        return self.level >= 0


class DegradationPolicy:
    """Budget-watermark ladder mapping energy pressure to instance edits."""

    def __init__(self, watermarks: Sequence[Watermark]):
        marks = sorted(watermarks, key=lambda w: w.budget_fraction)
        fractions = [w.budget_fraction for w in marks]
        require(len(fractions) == len(set(fractions)), "watermark budget fractions must be distinct")
        self.watermarks: Tuple[Watermark, ...] = tuple(marks)

    @classmethod
    def default(cls) -> "DegradationPolicy":
        """Compress at 70 %, harder at 85 %, shed a quarter at 95 %."""
        return cls(
            (
                Watermark(0.70, work_cap_scale=0.75),
                Watermark(0.85, work_cap_scale=0.50),
                Watermark(0.95, work_cap_scale=0.35, shed_fraction=0.25),
            )
        )

    def to_dict(self) -> dict:
        """JSON-ready form, so a restarted run can restore the policy."""
        return {"watermarks": [w.to_dict() for w in self.watermarks]}

    @classmethod
    def from_dict(cls, data: dict) -> "DegradationPolicy":
        return cls(tuple(Watermark.from_dict(w) for w in data["watermarks"]))

    def level_for(self, spent_fraction: float) -> int:
        """Deepest watermark index active at this spend fraction (−1: none)."""
        level = -1
        for i, mark in enumerate(self.watermarks):
            if spent_fraction >= mark.budget_fraction:
                level = i
        return level

    def apply(self, instance: ProblemInstance, spent_fraction: float) -> DegradeDecision:
        """Degrade ``instance`` for the current energy pressure.

        Returns the (possibly) transformed instance plus the task-index
        bookkeeping needed to map a schedule of the degraded instance
        back onto the original task list (:func:`expand_times`).
        """
        n = instance.n_tasks
        level = self.level_for(spent_fraction)
        if level < 0:
            return DegradeDecision(instance, np.arange(n), -1, 1.0, ())
        mark = self.watermarks[level]
        tele = get_collector()
        tele.counter("degrade_applied_total", level=str(level)).inc()

        kept = np.arange(n)
        shed: Tuple[int, ...] = ()
        if mark.shed_fraction > 0.0 and n > 1:
            n_shed = min(int(mark.shed_fraction * n), n - 1)
            if n_shed > 0:
                thetas = np.array([t.efficiency_theta for t in instance.tasks])
                # Lowest marginal accuracy per FLOP goes first; ties break
                # on the later deadline (more slack to give up).
                order = np.lexsort((-instance.tasks.deadlines, thetas))
                shed = tuple(sorted(int(j) for j in order[:n_shed]))
                kept = np.array([j for j in range(n) if j not in set(shed)])
                tele.counter("degrade_shed_tasks_total").add(n_shed)

        caps = [mark.work_cap_scale * instance.tasks[int(j)].f_max for j in kept]
        degraded = cap_work(instance, caps, kept)
        return DegradeDecision(degraded, kept, level, mark.work_cap_scale, shed)


def expand_times(times: np.ndarray, kept: np.ndarray, n_total: int) -> np.ndarray:
    """Lift a degraded instance's ``t_jr`` back to the full task list.

    Rows of shed tasks are zero — they received no work.
    """
    times = np.asarray(times, dtype=float)
    out = np.zeros((n_total, times.shape[1]))
    out[np.asarray(kept, dtype=int)] = times
    return out
