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
are exact within each step.  The first iteration derives every task's
margins in one vectorised pass; after that the loop keeps its state
current move by move.  A move changes ``t`` in at most two (task,
machine) entries, and that invalidates only:

* the margins of a task whose work changed;
* the deadline slack of a touched machine's column (its cumsum and
  suffix minimum give the same bits as :func:`deadline_slack`'s);
* the growth and shrink ψ of a touched task's row and, through the
  slack, the growth ψ of a touched machine's column.

Every re-derived value uses the same arithmetic as a full rebuild, so
schedules, iteration counts and argmax tie order are bit-identical to
it; the test suite keeps that full rebuild as a reference.  One argmax
of the growth ψ serves both the growth and the transfer phase, and
relocation scans only the machine pairs with a positive saving rate.
On the solve-large instances (n = 100–160, m = 5–8, 2-vCPU x86 host) a
call costs about 0.95 ms for 16 iterations, 59 µs per iteration,
against 105 µs when every iteration rebuilt its (n, m) and (n, m, m)
arrays.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List

import numpy as np

from ..core.instance import ProblemInstance
from ..core.segments import SegmentTable
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


def _all_task_margins(
    table: SegmentTable, flops: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_task_margins` of every task at once, bit for bit.

    One count per row of the padded breakpoint matrix (its ``+inf``
    padding never counts) replaces the bisections: with ``c`` breakpoints
    below ``f``, the snap candidates are ``p[c−1]`` and ``p[c]``, and since
    breakpoints strictly increase, the snapped work has ``c − 1`` (snapped
    down) or ``c`` breakpoints below it and ``c`` or ``c + 1`` (snapped up)
    at or below it.
    """
    bp, slopes, counts, f_max = table.breakpoints, table.slopes, table.n_segments, table.f_max
    # Gathers go through flat indices: each row's start in the raveled matrix.
    n, width = bp.shape
    points, pieces = bp.ravel(), slopes.ravel()
    at_point = np.arange(0, n * width, width)
    at_piece = at_point - np.arange(n)
    last = counts - 1
    f = np.minimum(np.maximum(flops, 0.0), f_max)
    # Snap to a breakpoint within float dust, the one below first.
    eps_f = 1e-9 * f_max
    below = (bp < f[:, None]).sum(axis=1)  # <= counts, as f <= f_max
    p_below = points[at_point + np.maximum(below - 1, 0)]
    p_above = points[at_point + below]
    down = (below >= 1) & (np.abs(f - p_below) <= eps_f)
    up = ~down & (np.abs(f - p_above) <= eps_f)
    f = np.where(down, p_below, np.where(up, p_above, f))

    k = np.minimum(np.maximum(below + up - 1, 0), last)
    capped = f >= f_max
    gains = np.where(capped, 0.0, pieces[at_piece + k])
    next_room = np.where(capped, 0.0, points[at_point + k + 1] - f)

    k = np.minimum(np.maximum(below - down - 1, 0), last)
    empty = f <= 0.0
    losses = np.where(empty, slopes[:, 0], pieces[at_piece + k])
    prev_room = np.where(empty, 0.0, f - points[at_point + k])
    return gains, losses, next_room, prev_room


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
    budget = instance.budget

    table = tasks.segment_table
    if max_iterations is None:
        # Generous bound: each (task, machine, segment) triple can be
        # saturated a handful of times along the exchange path.
        max_iterations = 50 * (len(table) * m + n * m + 10)
    counts = table.n_segments.tolist()

    if math.isfinite(budget) and budget > 0:
        energy_scale = budget
    else:
        energy_scale = float(t.sum(axis=0) @ powers) or 1.0
    eps_energy = _ENERGY_RTOL * max(energy_scale, 1.0)

    # Relocation saves energy only from a less to a more efficient
    # machine: the (src, dst) pairs with a positive rate, in C order.
    rate = 1.0 / effs[:, None] - 1.0 / effs[None, :]  # J saved per FLOP moved src→dst
    src, dst = np.nonzero(rate > 0.0)
    pair_rate = rate[src, dst]
    src_speeds, dst_speeds = speeds[src], speeds[dst]

    # State every phase reads, kept current move by move:
    # * per task: gain, loss and the FLOP to the next/previous breakpoint;
    # * ``slack``: :func:`deadline_slack` of ``t``;
    # * ``open_g``: growth ψ where the task has room and gains (−inf
    #   elsewhere); ``masked_g`` further needs deadline slack on the
    #   machine, so it is the ψ of every growable pair;
    # * ``masked_s``: shrink ψ of every pair holding energy (+inf elsewhere).
    # A pair grows when ``min(slack·P_r, next_room/E_r) > eps``, i.e. when
    # both terms do, which splits the test into a row and a column part.
    flops = t @ speeds
    margins = _all_task_margins(table, flops)
    gains, losses, next_room, prev_room = (a.tolist() for a in margins)
    slack = deadline_slack(t, deadlines)
    psi_grow = margins[0][:, None] * effs[None, :]
    open_g = np.where((margins[2][:, None] / effs[None, :] > eps_energy) & (psi_grow > 0.0), psi_grow, -np.inf)
    masked_g = np.where(slack * powers[None, :] > eps_energy, open_g, -np.inf)
    shrink_energy = np.minimum(t * powers[None, :], margins[3][:, None] / effs[None, :])
    masked_s = np.where(shrink_energy > eps_energy, margins[1][:, None] * effs[None, :], np.inf)
    power_of, eff_of = powers.tolist(), effs.tolist()

    iterations = 0
    converged = False
    while iterations < max_iterations:
        iterations += 1

        # One argmax serves both phases: the best growable pair.
        jg, rg = divmod(int(np.argmax(masked_g)), m)
        psi_g = float(masked_g[jg, rg])
        moves: list = []  # (task, machine) entries of t the move changed
        if psi_g > -math.inf:
            grow_e = min(float(slack[jg, rg]) * power_of[rg], next_room[jg] / eff_of[rg])
            unused = math.inf if math.isinf(budget) else budget - float(t.sum(axis=0) @ powers)
            if unused > eps_energy:
                # Growth phase: spend free budget on the best pair.
                t[jg, rg] += min(unused, grow_e) / power_of[rg]
                moves = [(jg, rg)]
            else:
                # Transfer phase: best growth vs cheapest shrink, excluding
                # the self-pair (shrinking and regrowing the same (j, r) is
                # a no-op).
                own = masked_s[jg, rg]
                masked_s[jg, rg] = np.inf
                js, rs = divmod(int(np.argmin(masked_s)), m)
                masked_s[jg, rg] = own
                psi_s = float(masked_s[js, rs])
                if math.isfinite(psi_s) and psi_g > psi_s * (1.0 + _PSI_RTOL) + _PSI_RTOL:
                    delta_e = min(grow_e, min(float(t[js, rs]) * power_of[rs], prev_room[js] / eff_of[rs]))
                    if delta_e > eps_energy:
                        t[jg, rg] += delta_e / power_of[rg]
                        t[js, rs] -= delta_e / power_of[rs]
                        if t[js, rs] < 0.0:
                            t[js, rs] = 0.0
                        moves = [(jg, rg), (js, rs)]

        if not moves and src.size:
            # Relocation phase: same task, work held constant, source on a
            # less efficient machine than the destination.  Energy saved is
            # Δf · (1/E_src − 1/E_dst) > 0; pick the largest saving.  The
            # loop makes (accuracy, −energy) lexicographically increase, so
            # relocations cannot cycle with growth/transfer moves.
            df = np.minimum(t[:, src] * src_speeds, slack[:, dst] * dst_speeds)  # (n, pairs)
            saving = df * pair_rate
            idx = int(np.argmax(saving))
            if saving.flat[idx] > eps_energy:
                j, p = divmod(idx, src.size)
                r_src, r_dst = int(src[p]), int(dst[p])
                moved_flops = float(df.flat[idx])
                t[j, r_src] -= moved_flops / speeds[r_src]
                if t[j, r_src] < 0.0:
                    t[j, r_src] = 0.0
                t[j, r_dst] += moved_flops / speeds[r_dst]
                moves = [(j, r_src), (j, r_dst)]

        if not moves:
            converged = True
            break

        # Re-derive only what the move invalidated (module docstring): the
        # margins of tasks whose work changed, the touched machines' slack
        # columns, then every pair of each touched task, which reads both.
        new_flops = t @ speeds
        rows = {j for j, _ in moves}
        for j in rows:
            if new_flops[j] != flops[j]:
                k = counts[j]
                gains[j], losses[j], next_room[j], prev_room[j] = _task_margins(
                    float(new_flops[j]), table.breakpoints[j, : k + 1].tolist(), table.slopes[j, :k].tolist()
                )
        flops = new_flops
        for r in {r for _, r in moves}:
            gaps = deadlines - np.cumsum(t[:, r])
            column = np.maximum(np.minimum.accumulate(gaps[::-1])[::-1], 0.0)
            slack[:, r] = column
            masked_g[:, r] = np.where(column * powers[r] > eps_energy, open_g[:, r], -np.inf)
        for j in rows:
            gain, room = gains[j], next_room[j]
            psi = [gain * e for e in eff_of]
            row_g = [x if room / e > eps_energy and x > 0.0 else -math.inf for x, e in zip(psi, eff_of)]
            open_g[j] = row_g
            masked_g[j] = [
                x if s * pw > eps_energy else -math.inf for x, s, pw in zip(row_g, slack[j].tolist(), power_of)
            ]
            loss, room = losses[j], prev_room[j]
            masked_s[j] = [
                loss * e if x * pw > eps_energy and room / e > eps_energy else math.inf
                for x, pw, e in zip(t[j].tolist(), power_of, eff_of)
            ]

    return RefineResult(times=t, iterations=iterations, converged=converged)
