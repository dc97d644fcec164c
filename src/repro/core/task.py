"""Tasks: compressible inference jobs with deadlines.

Paper Sec. 3: each job ``j`` needs ``f_j^max`` FLOP for full execution,
must finish by deadline ``d_j``, and carries an accuracy function
``a_j(f)``.  Jobs are conventionally indexed by *non-decreasing deadline*
(``i < j`` iff ``d_i < d_j``); :class:`TaskSet` enforces/creates this
EDF order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from ..utils.errors import ValidationError
from ..utils.validation import check_positive, require
from .accuracy import PiecewiseLinearAccuracy

if TYPE_CHECKING:  # pragma: no cover - segments imports this module
    from .segments import SegmentTable

__all__ = ["Task", "TaskSet"]


@dataclass(frozen=True)
class Task:
    """One compressible inference job.

    Attributes
    ----------
    deadline:
        ``d_j`` in seconds (> 0).
    accuracy:
        Piecewise-linear accuracy function; its ``f_max`` is the work
        ``f_j^max`` of full (uncompressed) execution.
    name:
        Optional label for traces and examples.
    """

    deadline: float
    accuracy: PiecewiseLinearAccuracy
    name: Optional[str] = None

    def __post_init__(self) -> None:
        check_positive(self.deadline, "deadline")
        if not isinstance(self.accuracy, PiecewiseLinearAccuracy):
            raise ValidationError(
                "Task.accuracy must be a PiecewiseLinearAccuracy "
                f"(got {type(self.accuracy).__name__}); fit exponential "
                "curves with repro.core.accuracy.fit_piecewise first"
            )

    @property
    def f_max(self) -> float:
        """``f_j^max``: FLOP for full execution."""
        return self.accuracy.f_max

    @property
    def a_max(self) -> float:
        """Accuracy of full execution."""
        return self.accuracy.a_max

    @property
    def a_min(self) -> float:
        """Accuracy with zero work (random guess)."""
        return self.accuracy.a_min

    @property
    def efficiency_theta(self) -> float:
        """The paper's task efficiency θ_j: slope of the first segment."""
        return self.accuracy.first_slope

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"Task(d={self.deadline:.4g}s, f_max={self.f_max:.4g} FLOP{label})"


class TaskSet:
    """Tasks sorted by non-decreasing deadline (the paper's job order)."""

    def __init__(self, tasks: Sequence[Task], *, assume_sorted: bool = False) -> None:
        tasks = list(tasks)
        require(len(tasks) >= 1, "a task set needs at least one task")
        if not assume_sorted:
            tasks = sorted(tasks, key=lambda t: t.deadline)
        else:
            deadlines = [t.deadline for t in tasks]
            if any(b < a for a, b in zip(deadlines, deadlines[1:])):
                raise ValidationError("assume_sorted=True but deadlines are not sorted")
        self._tasks = tuple(tasks)
        self._deadlines = np.array([t.deadline for t in tasks], dtype=float)
        self._f_max = np.array([t.f_max for t in tasks], dtype=float)
        self._segment_table: Optional[SegmentTable] = None

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __getitem__(self, index: int) -> Task:
        return self._tasks[index]

    @property
    def tasks(self) -> tuple[Task, ...]:
        return self._tasks

    # -- vector views ---------------------------------------------------------

    @property
    def deadlines(self) -> np.ndarray:
        """``d_j`` vector (s), non-decreasing, read-only."""
        v = self._deadlines.view()
        v.flags.writeable = False
        return v

    @property
    def f_max(self) -> np.ndarray:
        """``f_j^max`` vector (FLOP), read-only."""
        v = self._f_max.view()
        v.flags.writeable = False
        return v

    @property
    def segment_table(self) -> SegmentTable:
        """The tasks' accuracy functions packed into arrays (read-only).

        Built by :func:`repro.core.segments.build_segment_list` on first
        use and cached: tasks are immutable, so the table lives exactly
        as long as this task set.
        """
        if self._segment_table is None:
            from . import segments

            self._segment_table = segments.build_segment_list(self)
        return self._segment_table

    @property
    def d_max(self) -> float:
        """The last (largest) deadline ``d^max``."""
        return float(self._deadlines[-1])

    @property
    def total_f_max(self) -> float:
        """Total uncompressed demand ``Σ_j f_j^max`` (FLOP)."""
        return float(self._f_max.sum())

    @property
    def theta_min(self) -> float:
        """Smallest task efficiency over the set."""
        return min(t.efficiency_theta for t in self._tasks)

    @property
    def theta_max(self) -> float:
        """Largest task efficiency over the set."""
        return max(t.efficiency_theta for t in self._tasks)

    @property
    def heterogeneity_mu(self) -> float:
        """Task heterogeneity ratio μ = θ_max / θ_min (paper Sec. 6)."""
        return self.theta_max / self.theta_min

    def accuracies(self, flops: Sequence[float]) -> np.ndarray:
        """Evaluate each task's accuracy at the given per-task work."""
        flops = np.asarray(flops, dtype=float)
        if flops.shape != (len(self),):
            raise ValidationError(f"expected {len(self)} work values, got shape {flops.shape}")
        return self.segment_table.values(flops)

    def max_accuracy_sum(self) -> float:
        """``Σ_j a_j^max`` — upper bound on any schedule's total accuracy."""
        return float(sum(t.a_max for t in self._tasks))

    def __repr__(self) -> str:
        return f"TaskSet(n={len(self)}, d_max={self.d_max:.4g}s)"
