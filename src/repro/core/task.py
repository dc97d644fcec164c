"""Tasks: compressible inference jobs with deadlines.

Paper Sec. 3: each job ``j`` needs ``f_j^max`` FLOP for full execution,
must finish by deadline ``d_j``, and carries an accuracy function
``a_j(f)``.  Jobs are conventionally indexed by *non-decreasing deadline*
(``i < j`` iff ``d_i < d_j``); :class:`TaskSet` enforces/creates this
EDF order.

A :class:`TaskSet` is array-native: deadlines plus every accuracy
function packed into padded ``(n, K+1)`` matrices, validated once.
Batch builders (the online planner's ``tasks_from_thetas``, the wire
format's ``instance_from_dict``) fill those matrices directly through
:meth:`TaskSet.from_arrays`; :class:`Task` objects exist for callers
that iterate over tasks and are built from the rows on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from ..utils.errors import ValidationError
from ..utils.validation import check_positive, require
from .accuracy import PiecewiseLinearAccuracy, validate_rows

if TYPE_CHECKING:  # pragma: no cover - segments imports this module
    from .segments import SegmentTable

__all__ = ["Task", "TaskSet"]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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
    """Tasks sorted by non-decreasing deadline (the paper's job order).

    The state is array-native: the deadline vector plus every task's
    accuracy function packed into ``(n, K+1)`` breakpoint and accuracy
    matrices, row ``j`` padded past its ``n_segments[j] + 1`` points with
    ``+inf`` (breakpoints) and its ``a_max`` (accuracies) — the layout
    :class:`~repro.core.segments.SegmentTable` consumes.

    Build one from :class:`Task` objects (``TaskSet(tasks)``) or straight
    from arrays with :meth:`from_arrays`, which validates the whole
    matrix once.  An array-built set creates its :class:`Task` objects on
    first iteration or index, from the already validated rows.
    """

    def __init__(self, tasks: Sequence[Task], *, assume_sorted: bool = False) -> None:
        tasks = list(tasks)
        require(len(tasks) >= 1, "a task set needs at least one task")
        if not assume_sorted:
            tasks = sorted(tasks, key=lambda t: t.deadline)
        else:
            deadlines = [t.deadline for t in tasks]
            if any(b < a for a, b in zip(deadlines, deadlines[1:])):
                raise ValidationError("assume_sorted=True but deadlines are not sorted")
        funcs = [t.accuracy for t in tasks]
        counts = np.array([acc.n_segments for acc in funcs], dtype=np.int64)
        # Scatter every function's points into row-major padded matrices.
        points = np.arange(int(counts.max()) + 1)[None, :] <= counts[:, None]
        bp = np.full(points.shape, np.inf)
        bp[points] = np.concatenate([acc.breakpoints for acc in funcs])
        acc_at = np.repeat(np.array([acc.a_max for acc in funcs])[:, None], points.shape[1], axis=1)
        acc_at[points] = np.concatenate([acc.breakpoint_accuracies for acc in funcs])
        slopes = np.zeros((len(funcs), points.shape[1] - 1))
        slopes[points[:, 1:]] = np.concatenate([acc.slopes for acc in funcs])
        self._set_rows(np.array([t.deadline for t in tasks], dtype=float), bp, acc_at, slopes, counts)
        self._tasks: Optional[tuple[Task, ...]] = tuple(tasks)
        self._names = tuple(t.name for t in tasks)

    @classmethod
    def from_arrays(
        cls,
        deadlines: Sequence[float],
        breakpoints: np.ndarray,
        accuracies: np.ndarray,
        *,
        n_segments: Optional[Sequence[int]] = None,
        names: Optional[Sequence[Optional[str]]] = None,
    ) -> "TaskSet":
        """Build a task set from padded ``(n, K+1)`` matrices, validated once.

        Row ``j`` holds task ``j``'s breakpoints and breakpoint
        accuracies; with ``n_segments`` given, entries past its
        ``n_segments[j] + 1`` points are padding and ignored, otherwise
        every row has ``K`` pieces.  Rejects exactly what
        :class:`Task` and :class:`PiecewiseLinearAccuracy` reject (see
        :func:`~repro.core.accuracy.validate_rows`), then sorts the rows
        into EDF order stably, as ``TaskSet(tasks)`` does.
        """
        d = np.array(deadlines, dtype=float)
        p = np.array(breakpoints, dtype=float)
        a = np.array(accuracies, dtype=float)
        if d.ndim != 1 or p.ndim != 2 or p.shape != a.shape or p.shape[0] != d.size:
            raise ValidationError(
                f"expected n deadlines and (n, K+1) breakpoint and accuracy matrices, "
                f"got shapes {d.shape}, {p.shape} and {a.shape}"
            )
        require(d.size >= 1, "a task set needs at least one task")
        require(p.shape[1] >= 2, "need at least two breakpoints (one segment)")
        if n_segments is None:
            counts = np.full(d.size, p.shape[1] - 1, dtype=np.int64)
        else:
            counts = np.array(n_segments, dtype=np.int64)
            require(
                counts.shape == d.shape and bool(np.all((counts >= 1) & (counts < p.shape[1]))),
                f"n_segments must give each of the {d.size} rows 1..{p.shape[1] - 1} pieces",
            )
        if names is not None:
            require(len(names) == d.size, f"expected {d.size} names, got {len(names)}")
        bad = ~(np.isfinite(d) & (d > 0.0))
        if bad.any():
            j = int(np.argmax(bad))
            raise ValidationError(f"deadline must be finite and > 0, got {float(d[j])!r} (row {j})")
        slopes = validate_rows(p, a, counts)
        # Canonical padding, and no column past the longest row.
        width = int(counts.max()) + 1
        points = np.arange(width)[None, :] <= counts[:, None]
        rows = np.arange(d.size)
        p = np.where(points, p[:, :width], np.inf)
        a = np.where(points, a[:, :width], a[rows, counts][:, None])
        slopes = slopes[:, : width - 1]
        if np.any(d[1:] < d[:-1]):
            order = np.argsort(d, kind="stable")
            d, p, a, slopes, counts = d[order], p[order], a[order], slopes[order], counts[order]
            if names is not None:
                names = [names[i] for i in order]
        task_set = cls.__new__(cls)
        task_set._set_rows(d, p, a, slopes, counts)
        task_set._tasks = None
        task_set._names = (None,) * d.size if names is None else tuple(names)
        return task_set

    def _set_rows(
        self, deadlines: np.ndarray, bp: np.ndarray, acc: np.ndarray, slopes: np.ndarray, counts: np.ndarray
    ) -> None:
        self._deadlines = _frozen(deadlines)
        self._breakpoints = _frozen(bp)
        self._accuracies = _frozen(acc)
        self._slopes = _frozen(slopes)
        self._n_segments = _frozen(counts)
        self._f_max = _frozen(bp[np.arange(counts.size), counts])
        self._segment_table: Optional[SegmentTable] = None

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return int(self._deadlines.size)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)

    def __getitem__(self, index: int) -> Task:
        return self.tasks[index]

    @property
    def tasks(self) -> tuple[Task, ...]:
        """The tasks as objects, built from the rows on first use."""
        if self._tasks is None:
            self._tasks = tuple(
                Task(
                    deadline=d,
                    accuracy=PiecewiseLinearAccuracy._trusted(
                        self._breakpoints[j, : k + 1].copy(),
                        self._accuracies[j, : k + 1].copy(),
                        self._slopes[j, :k].copy(),
                    ),
                    name=self._names[j],
                )
                for j, (d, k) in enumerate(zip(self._deadlines.tolist(), self._n_segments.tolist()))
            )
        return self._tasks

    # -- vector views ---------------------------------------------------------

    @property
    def deadlines(self) -> np.ndarray:
        """``d_j`` vector (s), non-decreasing, read-only."""
        return self._deadlines

    @property
    def f_max(self) -> np.ndarray:
        """``f_j^max`` vector (FLOP), read-only."""
        return self._f_max

    @property
    def names(self) -> tuple[Optional[str], ...]:
        """Each task's label (``None`` when unnamed)."""
        return self._names

    @property
    def breakpoints(self) -> np.ndarray:
        """``(n, K+1)`` breakpoints, row ``j`` padded with ``+inf`` (read-only)."""
        return self._breakpoints

    @property
    def breakpoint_accuracies(self) -> np.ndarray:
        """``(n, K+1)`` accuracies at the breakpoints, padded with ``a_max`` (read-only)."""
        return self._accuracies

    @property
    def slopes(self) -> np.ndarray:
        """``(n, K)`` per-piece slopes, padded with 0 (read-only)."""
        return self._slopes

    @property
    def n_segments(self) -> np.ndarray:
        """Pieces per task ``(n,)`` (read-only)."""
        return self._n_segments

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
        """Smallest task efficiency (first-piece slope) over the set."""
        return float(self._slopes[:, 0].min())

    @property
    def theta_max(self) -> float:
        """Largest task efficiency (first-piece slope) over the set."""
        return float(self._slopes[:, 0].max())

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
        # A left-to-right sum, as over the tasks, not numpy's pairwise one.
        return float(sum(self._accuracies[:, -1].tolist()))

    def __repr__(self) -> str:
        return f"TaskSet(n={len(self)}, d_max={self.d_max:.4g}s)"
