"""The packed segment table driving Algorithms 1–3.

The paper's pseudocode manipulates a ``listSegments`` structure whose
entries know their *slope*, owning *task*, *position* within the task's
accuracy function and *totalFlops*.  :class:`SegmentTable` holds that
list as parallel arrays, already in Algorithm 1's processing order
(non-increasing slope), next to every task's breakpoints and breakpoint
accuracies padded into ``(n, K+1)`` matrices.

Those matrices are the :class:`~repro.core.task.TaskSet`'s own state
(validated once when the set was built); the table adds the segment
order.  It depends only on the task set, so it is built once per
instance: :attr:`repro.core.task.TaskSet.segment_table` calls
:func:`build_segment_list` on first use and keeps the result for the
task set's lifetime.  All arrays are read-only.

Invariant maintained by the algorithms (and asserted in tests): within a
task, segment ``k`` receives work only after segment ``k−1`` is full —
automatic when processing segments in non-increasing slope order, since
concavity makes earlier segments at least as steep.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle: task builds tables lazily
    from .task import TaskSet

__all__ = ["SegmentTable", "build_segment_list"]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class SegmentTable:
    """Every task's accuracy pieces, packed into arrays.

    Segment arrays (one entry per linear piece, ordered by
    ``(-slope, task, position)`` — Algorithm 1 line 1, ties broken so the
    schedule is deterministic):

    * ``task`` — owning task index (EDF order);
    * ``position`` — 0-based piece index ``k`` within that task;
    * ``slope`` — accuracy per FLOP on the piece;
    * ``width`` — FLOP needed to traverse the piece.

    Task matrices, row ``j`` for task ``j``, padded past the task's last
    breakpoint with ``+inf`` (breakpoints), its ``a_max`` (accuracies)
    and ``0`` (slopes):

    * ``breakpoints`` ``(n, K+1)`` and ``accuracies`` ``(n, K+1)``;
    * ``slopes`` ``(n, K)``; ``n_segments`` ``(n,)``; ``f_max`` ``(n,)``.
    """

    __slots__ = (
        "task",
        "position",
        "slope",
        "width",
        "breakpoints",
        "accuracies",
        "slopes",
        "n_segments",
        "f_max",
    )

    def __init__(self, tasks: TaskSet) -> None:
        bp = tasks.breakpoints
        counts = tasks.n_segments
        slopes = tasks.slopes
        n, k_max = slopes.shape
        with np.errstate(invalid="ignore"):  # inf - inf in the padding only
            # p_{k+1} − p_k: the same subtraction as the piece's
            # f_end − f_start, so widths match the accuracy function exactly.
            widths = bp[:, 1:] - bp[:, :-1]
        valid = np.arange(k_max)[None, :] < counts[:, None]
        task = np.broadcast_to(np.arange(n)[:, None], valid.shape)[valid]
        position = np.broadcast_to(np.arange(k_max)[None, :], valid.shape)[valid]
        slope = slopes[valid]
        width = widths[valid]
        order = np.lexsort((position, task, -slope))

        self.task = _frozen(task[order])
        self.position = _frozen(position[order])
        self.slope = _frozen(slope[order])
        self.width = _frozen(width[order])
        # The task set's own read-only matrices, shared rather than copied.
        self.breakpoints = bp
        self.accuracies = tasks.breakpoint_accuracies
        self.slopes = slopes
        self.n_segments = counts
        self.f_max = tasks.f_max

    @property
    def n_tasks(self) -> int:
        """Number of tasks ``n`` (rows of the task matrices)."""
        return int(self.n_segments.size)

    def __len__(self) -> int:
        return int(self.task.size)

    def task_totals(self, per_segment: np.ndarray) -> np.ndarray:
        """Sum a per-segment quantity (table order) per task."""
        return np.bincount(self.task, weights=per_segment, minlength=self.n_tasks)

    def marginal_gains(self, flops: np.ndarray) -> np.ndarray:
        """Every task's right derivative ``a'+(f)`` (as ``marginal_gain``)."""
        flops = np.asarray(flops, dtype=float)
        at = (self.breakpoints <= np.maximum(flops, 0.0)[:, None]).sum(axis=1) - 1
        k = np.clip(at, 0, self.n_segments - 1)
        return np.where(flops >= self.f_max, 0.0, self.slopes[np.arange(flops.size), k])

    def marginal_losses(self, flops: np.ndarray) -> np.ndarray:
        """Every task's left derivative ``a'−(f)`` (as ``marginal_loss``)."""
        flops = np.asarray(flops, dtype=float)
        at = (self.breakpoints < np.minimum(flops, self.f_max)[:, None]).sum(axis=1) - 1
        k = np.clip(at, 0, self.n_segments - 1)
        return np.where(flops <= 0.0, self.slopes[:, 0], self.slopes[np.arange(flops.size), k])

    def values(self, flops: np.ndarray) -> np.ndarray:
        """Every task's accuracy at its work, bit-identical to ``np.interp``.

        Mirrors ``np.interp``'s branches per row: below the first
        breakpoint the left value, at or past the last the right value,
        exactly on a breakpoint its accuracy, otherwise
        ``slope·(f − p_k) + a_k`` (retried from the right end of the piece
        if that is NaN), with the piece's slope computed the same way.
        """
        flops = np.asarray(flops, dtype=float)
        rows = np.arange(flops.size)
        last = self.n_segments
        # Index of the last breakpoint <= f (the +inf padding never counts).
        k = (self.breakpoints <= flops[:, None]).sum(axis=1) - 1
        inner = np.clip(k, 0, last - 1)
        p_k = self.breakpoints[rows, inner]
        a_k = self.accuracies[rows, inner]
        slope = self.slopes[rows, inner]
        with np.errstate(invalid="ignore"):  # rows outside [0, f_max) are replaced below
            out = slope * (flops - p_k) + a_k
            retry = np.isnan(out)
            if retry.any():
                p_next = self.breakpoints[rows, inner + 1]
                a_next = self.accuracies[rows, inner + 1]
                again = slope * (flops - p_next) + a_next
                again = np.where(np.isnan(again) & (a_k == a_next), a_k, again)
                out = np.where(retry, again, out)
        out = np.where(p_k == flops, a_k, out)
        out = np.where(k >= last, self.accuracies[rows, last], out)
        out = np.where(k < 0, self.accuracies[:, 0], out)
        return np.where(np.isnan(flops), flops, out)


def build_segment_list(tasks: TaskSet) -> SegmentTable:
    """Pack every task's accuracy pieces into a :class:`SegmentTable`.

    Prefer :attr:`TaskSet.segment_table`, which builds the table once
    per task set and caches it.
    """
    return SegmentTable(tasks)
