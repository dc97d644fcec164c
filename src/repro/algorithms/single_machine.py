"""Algorithm 1 — exact fractional scheduling on one machine.

Greedy over accuracy-function segments in non-increasing slope order:
each segment receives as much processing time as the *tightest following
deadline* allows (paper Alg. 1).  For concave piecewise-linear accuracy
functions this greedy is optimal: the feasible region of cumulative times
is a polymatroid-like nested system (prefix sums bounded by deadlines)
and the objective is separable concave, so steepest-slope-first satisfies
the KKT conditions of Sec. 3.2 (non-increasing marginal gains along the
machine).

An optional ``total_cap`` bounds the total busy time, which is how the
multi-machine algorithm encodes the energy budget as "an additional
deadline" (Sec. 4.1's remark).

Complexity: with ``S`` segments in total, each allocation scans the
following tasks once — ``O(S · n)``; for a constant number of segments
per task this is the paper's ``O(n²)`` (Theorem 1).

Implementation: the greedy never stores the slacks ``d_i − Σ_{k≤i} t_k``.
Their approximation ``d − cumsum(t)``, refreshed only when needed, bounds
each one to within a rounding margin; a segment whose tightest following
slack provably covers it is granted whole.  Only a segment close to
binding computes the exact suffix minimum, folding each candidate's
deadline over the grants in their original order — the same chain of
roundings as subtracting every grant at once, so every grant is
bit-identical to the one-record-at-a-time algorithm.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from ..core.segments import SegmentTable
from ..utils.errors import ValidationError
from ..utils.validation import check_positive, check_sorted

__all__ = ["solve_single_machine"]


def solve_single_machine(
    deadlines: Sequence[float],
    speed: float,
    segments: SegmentTable,
    *,
    total_cap: float = math.inf,
    used: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Optimal fractional per-task times on one machine.

    Parameters
    ----------
    deadlines:
        ``d_j`` per task, non-decreasing (EDF order), seconds.
    speed:
        Machine speed ``s`` (FLOP/s).  Pass ``1.0`` to work directly in
        FLOP units (Algorithm 2's equivalent single machine).
    segments:
        The task set's packed segment table (already in slope order).
    total_cap:
        Upper bound on ``Σ_j t_j`` (seconds); the energy budget as an
        additional deadline.
    used:
        Optional per-segment array (table order) that receives the FLOP
        granted to each segment.

    Returns
    -------
    numpy.ndarray
        ``t_j`` processing time per task (seconds).
    """
    deadlines = np.asarray(deadlines, dtype=float)
    check_positive(speed, "speed")
    check_sorted(deadlines, "deadlines")
    if total_cap < 0:
        raise ValidationError(f"total_cap must be >= 0, got {total_cap}")
    n = deadlines.size
    if segments.n_tasks != n:
        raise ValidationError(f"segment table covers {segments.n_tasks} tasks but {n} deadlines given")
    t = [0.0] * n
    widths = segments.width / speed
    # Every slack d_i − Σ_{k≤i} t_k is a fold of d_i over the grants so far;
    # ``deadlines − cumsum(t)`` matches it to within ``margin`` (each of at
    # most 2·len(segments) + n roundings errs by ≤ 2⁻⁵³ of the magnitude).
    magnitude = float(np.abs(deadlines).max(initial=0.0)) + float(np.sum(widths))
    margin = 4.0 * (2 * len(segments) + n + 8) * 2.0**-53 * magnitude
    # Slopes are sorted non-increasing: only the positive prefix can
    # improve accuracy.
    positive = int(np.count_nonzero(segments.slope > 0.0))
    tasks = segments.task[:positive].tolist()
    wants = widths[:positive].tolist()
    granted_tasks: List[int] = []
    granted: List[float] = []
    approx, floors = _approx_slack(deadlines, t)
    blocked = -1  # tasks <= blocked have min(slack[j:]) <= 0
    pending = 0.0  # granted since `floors` was computed
    capped = math.isfinite(total_cap)
    room = math.inf
    used_total = 0.0
    for i, (j, wanted) in enumerate(zip(tasks, wants)):
        if j <= blocked:
            continue  # min(slack[j:]) <= 0 already, and slack only shrinks
        if wanted <= 0.0:
            continue
        if capped:
            room = total_cap - used_total
            if room <= 0.0:
                break  # the cap only tightens: nothing more fits
        fits = floors[j] - pending - margin >= wanted
        if not fits:
            approx, floors = _approx_slack(deadlines, t)
            pending = 0.0
            fits = floors[j] - margin >= wanted
        if fits:
            # The tightest slack after task j provably covers the segment.
            contribution = room if room < wanted else wanted
        else:
            # Near binding: the exact min(slack[j:]) (paper Alg. 1 lines 6–7).
            floor, at = _exact_min(deadlines, approx, floors[j], j, margin, granted_tasks, granted)
            if floor <= 0.0:
                blocked = at
                continue
            slack = room if room < floor else floor
            contribution = slack if slack < wanted else wanted
            if contribution == floor:
                blocked = at  # that slack is now exactly 0
        t[j] += contribution
        used_total += contribution
        granted_tasks.append(j)
        granted.append(contribution)
        pending += contribution
        if used is not None:
            used[i] += contribution * speed
    return np.array(t)


def _approx_slack(deadlines: np.ndarray, t: List[float]) -> tuple[np.ndarray, List[float]]:
    """Approximate slacks ``d − cumsum(t)`` and their suffix minima."""
    approx = deadlines - np.cumsum(t)
    return approx, np.minimum.accumulate(approx[::-1])[::-1].tolist()


def _exact_min(
    deadlines: np.ndarray,
    approx: np.ndarray,
    floor: float,
    j: int,
    margin: float,
    granted_tasks: List[int],
    granted: List[float],
) -> tuple[float, int]:
    """Exact ``min(slack[j:])`` and a task where it is reached.

    Only slacks whose approximation is within two margins of the smallest
    can be the minimum; each is rebuilt by folding its deadline over the
    grants in their original order — the same chain of roundings as
    subtracting each grant when it was made.
    """
    candidates = j + np.flatnonzero(approx[j:] <= floor + 2.0 * margin)
    owners = np.asarray(granted_tasks)
    # Row c: the candidate's deadline, then each grant at or before it
    # (0.0 for grants to later tasks, which leaves a float unchanged).
    steps = np.where(owners[None, :] <= candidates[:, None], np.asarray(granted)[None, :], 0.0)
    chain = np.hstack([deadlines[candidates][:, None], steps])
    exact = np.subtract.accumulate(chain, axis=1)[:, -1]
    k = int(np.argmin(exact))
    return float(exact[k]), int(candidates[k])
