"""Algorithm 3 — RefineProfile.

The naive energy profile (spend the budget on the most efficient machines
first) is not always optimal: a steep task pinned by its deadline on the
efficient machine may leave accuracy on the table that a less efficient —
but less contended — machine could capture (the paper's Fig. 6b scenario).

RefineProfile repairs this by reallocating *energy* between
(task-segment, machine) pairs, comparing their **accuracy-per-Joule**
``ψ = slope · E_r`` (the energy marginal gain of Sec. 3.2):

* *growth*: while unused budget remains, grant it to the pair with the
  highest ψ that can still grow (deadline slack on its machine, work
  below ``f_max``);
* *transfer*: move energy from the allocated pair with the lowest
  marginal-loss ψ to the growable pair with the highest marginal-gain ψ,
  while the gain strictly exceeds the loss;
* *relocation*: move a task's work (FLOP held constant) from a less to a
  more efficient machine with deadline slack.  Accuracy is unchanged but
  energy is freed — this is the move that lets a task already at
  ``f_max`` vacate budget for others, and the greedy growth phase then
  spends the savings.  Without it the exchange provably stalls (e.g.
  when every other task is work-capped), which we observed against the
  LP on random instances.

Every step saturates one of: the remaining budget, a segment breakpoint,
a deadline slack, or a source allocation — so the loop terminates; each
transfer strictly increases total accuracy, and at a fixed point the KKT
conditions of Sec. 3.2 hold (equal/comparable energy marginal gains,
higher gains on more efficient machines).  Optimality is cross-checked
against the LP relaxation in the test suite.

The implementation works at task granularity with the *current* segment
of each task (marginal gain = slope right of ``f_j``, marginal loss =
slope left of ``f_j``); chunk sizes never cross a breakpoint, so slopes
are exact within each step.  A move changes the work of at most two
tasks, so each iteration re-derives gain, loss and room only for the
tasks whose work changed since the previous one (compared exactly, so
the values are those a full recomputation would give).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List

import numpy as np

from ..core.instance import ProblemInstance
from ..utils.errors import ValidationError

__all__ = ["RefineResult", "refine_profile", "deadline_slack"]

#: Relative improvement a transfer must achieve to be applied.
_PSI_RTOL = 1e-9
#: Energy chunks below this fraction of the budget scale are ignored.
_ENERGY_RTOL = 1e-12


def deadline_slack(times: np.ndarray, deadlines: np.ndarray) -> np.ndarray:
    """Per-(task, machine) growth headroom ``min_{i≥j}(d_i − Σ_{k≤i} t_kr)``.

    Growing ``t_jr`` by x delays every later task on machine ``r`` by x,
    so the binding constraint is the tightest suffix slack.  Returned
    values are clamped at 0 (an already-tight prefix gives no headroom).
    """
    completion = np.cumsum(times, axis=0)
    gaps = deadlines[:, None] - completion
    # Suffix minimum along tasks: reverse, running-min, reverse.
    suffix_min = np.minimum.accumulate(gaps[::-1], axis=0)[::-1]
    return np.maximum(suffix_min, 0.0)


def _task_margins(flops: float, bp: List[float], slopes: List[float]) -> tuple[float, float, float, float]:
    """``(gain, loss, next_room, prev_room)`` of one task at ``flops`` FLOP.

    ``bp`` and ``slopes`` are the task's breakpoints and piece slopes.
    Gain and loss are the accuracy function's right and left derivatives
    (``marginal_gain``/``marginal_loss``); the rooms are the FLOP to the
    next breakpoint and above the previous one.
    """
    f_max = bp[-1]
    last = len(slopes) - 1
    f = min(max(flops, 0.0), f_max)
    # Snap to a breakpoint when within float dust of one: otherwise a
    # residual ~1e-16·f_max of room pins the pair in the current segment
    # with an effectively zero growth capacity and the exchange stalls
    # one segment short of optimal.
    eps_f = 1e-9 * f_max
    k_near = bisect_left(bp, f)
    for k_cand in (k_near - 1, k_near):
        if 0 <= k_cand < len(bp) and abs(f - bp[k_cand]) <= eps_f:
            f = bp[k_cand]
            break
    if f >= f_max:
        gain = 0.0
        next_room = 0.0
    else:
        k = min(max(bisect_right(bp, max(f, 0.0)) - 1, 0), last)
        gain = slopes[k]
        next_room = bp[k + 1] - f
    if f <= 0.0:
        loss = slopes[0]
        prev_room = 0.0
    else:
        k = min(max(bisect_left(bp, f) - 1, 0), last)
        loss = slopes[k]
        prev_room = f - bp[k]
    return gain, loss, next_room, prev_room


@dataclass
class RefineResult:
    """Outcome of :func:`refine_profile`."""

    times: np.ndarray
    iterations: int
    converged: bool


def refine_profile(
    instance: ProblemInstance,
    times: np.ndarray,
    *,
    max_iterations: int | None = None,
) -> RefineResult:
    """Refine a feasible fractional solution in place of the naive profile.

    ``times`` is the (n, m) solution of Algorithm 2 (not mutated; a
    refined copy is returned).
    """
    tasks, cluster = instance.tasks, instance.cluster
    n, m = instance.n_tasks, instance.n_machines
    times = np.asarray(times, dtype=float)
    if times.shape != (n, m):
        raise ValidationError(f"times must have shape ({n}, {m}), got {times.shape}")
    t = times.copy()

    speeds = cluster.speeds  # s_r
    powers = cluster.powers  # P_r = s_r / E_r
    effs = cluster.efficiencies  # E_r
    deadlines = tasks.deadlines
    f_caps = tasks.f_max
    budget = instance.budget

    table = tasks.segment_table
    if max_iterations is None:
        # Generous bound: each (task, machine, segment) triple can be
        # saturated a handful of times along the exchange path.
        max_iterations = 50 * (len(table) * m + n * m + 10)
    counts = table.n_segments.tolist()
    points = [row[: k + 1] for row, k in zip(table.breakpoints.tolist(), counts)]
    pieces = [row[:k] for row, k in zip(table.slopes.tolist(), counts)]

    if math.isfinite(budget) and budget > 0:
        energy_scale = budget
    else:
        energy_scale = float(t.sum(axis=0) @ powers) or 1.0
    eps_energy = _ENERGY_RTOL * max(energy_scale, 1.0)

    gains = np.empty(n)
    losses = np.empty(n)
    next_room = np.empty(n)  # FLOP to the next breakpoint (gain side)
    prev_room = np.empty(n)  # FLOP above the previous breakpoint (loss side)
    prev_flops = np.full(n, np.nan)  # NaN never compares equal: all rows start stale

    iterations = 0
    converged = False
    while iterations < max_iterations:
        iterations += 1

        flops = t @ speeds
        for j in np.flatnonzero(flops != prev_flops).tolist():
            gains[j], losses[j], next_room[j], prev_room[j] = _task_margins(
                float(flops[j]), points[j], pieces[j]
            )
        prev_flops = flops

        slack = deadline_slack(t, deadlines)

        # Energy headroom of every growable pair; ψ of the growth.
        grow_energy = np.minimum(slack * powers[None, :], next_room[:, None] / effs[None, :])
        psi_grow = gains[:, None] * effs[None, :]
        growable = (grow_energy > eps_energy) & (psi_grow > 0.0)

        # Energy recoverable from every allocated pair; ψ of the loss.
        shrink_energy = np.minimum(t * powers[None, :], prev_room[:, None] / effs[None, :])
        psi_shrink = losses[:, None] * effs[None, :]
        shrinkable = shrink_energy > eps_energy

        used_energy = float(t.sum(axis=0) @ powers)
        unused = math.inf if math.isinf(budget) else budget - used_energy

        moved = False

        if unused > eps_energy and np.any(growable):
            # Growth phase: spend free budget on the best pair.
            masked = np.where(growable, psi_grow, -np.inf)
            j, r = np.unravel_index(int(np.argmax(masked)), masked.shape)
            delta_e = min(unused, float(grow_energy[j, r]))
            if delta_e > eps_energy:
                t[j, r] += delta_e / powers[r]
                moved = True

        if not moved and np.any(growable) and np.any(shrinkable):
            # Transfer phase: best growth vs cheapest shrink, excluding the
            # self-pair (shrinking and regrowing the same (j, r) is a no-op).
            masked_g = np.where(growable, psi_grow, -np.inf)
            jg, rg = np.unravel_index(int(np.argmax(masked_g)), masked_g.shape)
            masked_s = np.where(shrinkable, psi_shrink, np.inf)
            masked_s[jg, rg] = np.inf
            js, rs = np.unravel_index(int(np.argmin(masked_s)), masked_s.shape)
            psi_g = float(psi_grow[jg, rg])
            psi_s = float(masked_s[js, rs])
            if math.isfinite(psi_s) and psi_g > psi_s * (1.0 + _PSI_RTOL) + _PSI_RTOL:
                delta_e = min(float(grow_energy[jg, rg]), float(shrink_energy[js, rs]))
                if delta_e > eps_energy:
                    t[jg, rg] += delta_e / powers[rg]
                    t[js, rs] -= delta_e / powers[rs]
                    if t[js, rs] < 0.0:
                        t[js, rs] = 0.0
                    moved = True

        if not moved:
            # Relocation phase: same task, work held constant, source on a
            # less efficient machine than the destination.  Energy saved is
            # Δf · (1/E_src − 1/E_dst) > 0; pick the largest saving.  The
            # loop makes (accuracy, −energy) lexicographically increase, so
            # relocations cannot cycle with growth/transfer moves.
            avail_flops = t * speeds[None, :]  # (n, m): movable work per source
            room_flops = slack * speeds[None, :]  # (n, m): receivable work per dest
            df = np.minimum(avail_flops[:, :, None], room_flops[:, None, :])  # (n, src, dst)
            rate = 1.0 / effs[:, None] - 1.0 / effs[None, :]  # J saved per FLOP moved src→dst
            saving = df * np.where(rate > 0.0, rate, 0.0)[None, :, :]
            idx = int(np.argmax(saving))
            if saving.flat[idx] > eps_energy:
                j, r_src, r_dst = np.unravel_index(idx, saving.shape)
                moved_flops = float(df[j, r_src, r_dst])
                t[j, r_src] -= moved_flops / speeds[r_src]
                if t[j, r_src] < 0.0:
                    t[j, r_src] = 0.0
                t[j, r_dst] += moved_flops / speeds[r_dst]
                moved = True

        if not moved:
            converged = True
            break

    return RefineResult(times=t, iterations=iterations, converged=converged)
