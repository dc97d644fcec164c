"""Algorithm 2 — ComputeNaiveSolution.

Optimal fractional solution for a *fixed* energy profile:

1. compute the naive profile (most-efficient machines first, Sec. 4.2);
2. collapse the cluster into an *equivalent single machine*: within
   deadline ``d_j`` and profile caps, the cluster can deliver
   ``D_j = Σ_r s_r · min(d_j, p_r)`` FLOP to tasks ``1..j`` — these become
   temporary deadlines in FLOP units (paper lines 6–8, with ``s = 1``);
3. solve the single-machine problem exactly (Algorithm 1);
4. map cumulative work back to the machines by **water-filling**: after
   task ``j``, every machine has been busy ``min(τ_j, p_r)`` seconds where
   ``τ_j`` solves ``Σ_r s_r · min(τ_j, p_r) = W_j`` (cumulative work).
   This is the closed form of the paper's redistribution loop (lines
   11–21): machines are loaded evenly in *time* and drop out exactly when
   their profile is exhausted.  ``W_j ≤ D_j`` guarantees ``τ_j ≤ d_j``, so
   every prefix deadline holds on every machine.

:func:`profile_supergradient` reads the LP prices of that solution and
bounds how far Φ (the accuracy Algorithm 2 reaches for a given profile)
can move when the profile changes — which lets the FR-OPT profile polish
skip candidates that cannot win.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.instance import ProblemInstance
from ..core.profiles import EnergyProfile, naive_profile
from ..core.schedule import Schedule
from ..telemetry import get_collector
from ..utils.errors import ValidationError
from .single_machine import solve_single_machine

__all__ = ["NaiveSolution", "compute_naive_solution", "WaterFiller", "ProfileSupergradient", "profile_supergradient"]

#: Relative slack below which a prefix of the equivalent machine counts as
#: binding, and relative distance (of ``f_max``) within which work snaps
#: to a breakpoint before reading its marginals.
_BINDING_RTOL = 1e-9


class WaterFiller:
    """Solves ``Σ_r s_r · min(τ, cap_r) = W`` for the common busy time τ.

    Precomputes the piecewise-linear capacity curve once; :meth:`taus`
    answers a whole vector of work queries with one binary search and
    one linear interpolation per query.
    """

    def __init__(self, speeds: np.ndarray, caps: np.ndarray):
        speeds = np.asarray(speeds, dtype=float)
        caps = np.asarray(caps, dtype=float)
        if speeds.shape != caps.shape or speeds.ndim != 1:
            raise ValidationError("speeds and caps must be equal-length vectors")
        order = np.argsort(caps, kind="stable")
        self._caps_sorted = caps[order]
        speeds_sorted = speeds[order]
        # Speed still active on [caps_sorted[k-1], caps_sorted[k]): machines
        # whose cap is >= the interval, i.e. suffix sums.
        suffix = np.concatenate([np.cumsum(speeds_sorted[::-1])[::-1], [0.0]])
        # Work delivered when τ reaches each sorted cap: the running sum
        # (left to right, as ``cumsum`` adds) of the active speed times
        # each interval's length.
        steps = suffix[:-1] * np.diff(self._caps_sorted, prepend=0.0)
        g = np.concatenate([[0.0], np.cumsum(steps)])
        self._knot_tau = np.concatenate([[0.0], self._caps_sorted])
        self._knot_work = g
        self._active_speed = suffix  # active speed on segment k: [knot_k, knot_{k+1})
        self._max_work = float(g[-1])
        self._max_tau = float(self._caps_sorted[-1]) if self._caps_sorted.size else 0.0

    @property
    def capacity(self) -> float:
        """Total deliverable work ``Σ_r s_r · cap_r`` (FLOP)."""
        return self._max_work

    def taus(self, work: np.ndarray, *, tolerance: float = 1e-7) -> np.ndarray:
        """Minimal τ delivering each entry of ``work``; clamps small overshoot.

        Zero or negative work needs no time; work at or beyond the
        capacity (within ``tolerance``) takes the largest cap; more than
        that raises :class:`ValidationError`.
        """
        work = np.asarray(work, dtype=float)
        none = work <= 0.0
        full = ~none & (work >= self._max_work)
        over = full & (work > self._max_work * (1.0 + tolerance) + tolerance)
        if over.any():
            worst = float(work[over].max())
            raise ValidationError(f"requested work {worst:.6g} exceeds capacity {self._max_work:.6g}")
        last = max(self._caps_sorted.size - 1, 0)
        k = np.searchsorted(self._knot_work, work, side="left") - 1
        k = np.clip(k, 0, last)
        speed = self._active_speed[k]
        with np.errstate(divide="ignore", invalid="ignore"):
            rising = self._knot_tau[k] + (work - self._knot_work[k]) / speed
        # Plateau (duplicate caps): jump to the knot end.
        out = np.where(speed > 0.0, rising, self._knot_tau[np.minimum(k + 1, last + 1)])
        out = np.where(full, self._max_tau, out)
        return np.where(none, 0.0, out)

    def tau(self, work: float, *, tolerance: float = 1e-7) -> float:
        """Minimal τ delivering ``work`` FLOP (one-element :meth:`taus`)."""
        return float(self.taus(np.array([work]), tolerance=tolerance)[0])


@dataclass
class NaiveSolution:
    """Output of Algorithm 2 — everything Algorithm 3 needs to refine."""

    times: np.ndarray  # (n, m) seconds
    work: np.ndarray  # (n,) FLOP granted per task
    profile: EnergyProfile
    temp_deadlines: np.ndarray  # (n,) D_j, FLOP the cluster delivers to tasks 1..j

    def to_schedule(self, instance: ProblemInstance) -> Schedule:
        return Schedule(instance, self.times)


def compute_naive_solution(
    instance: ProblemInstance,
    profile: Optional[EnergyProfile] = None,
) -> NaiveSolution:
    """Run Algorithm 2 on ``instance`` (optionally with a custom profile)."""
    tele = get_collector()
    tasks, cluster = instance.tasks, instance.cluster
    if profile is None:
        profile = naive_profile(instance)
    elif len(profile) != len(cluster):
        raise ValidationError("profile length must equal number of machines")
    speeds = cluster.speeds
    deadlines = tasks.deadlines
    caps = np.minimum(profile.limits, tasks.d_max)

    # Temporary deadlines of the equivalent single machine (FLOP units).
    # D_j = Σ_r s_r · min(d_j, cap_r); non-decreasing since d_j is.
    temp_deadlines = (speeds * np.minimum(deadlines[:, None], caps[None, :])).sum(axis=1)

    with tele.span("naive.segments"):
        segments = tasks.segment_table
    # A degenerate all-zero capacity (budget 0) would make deadline 0 — the
    # greedy then allocates nothing, which is correct.
    with tele.span("naive.single_machine"):
        work = solve_single_machine(temp_deadlines, 1.0, segments)

    # Map back to machines with water-filling on cumulative work.
    with tele.span("naive.water_fill"):
        filler = WaterFiller(speeds, caps)
        cumulative_work = np.cumsum(work)
        taus = filler.taus(cumulative_work)
        cumulative_times = np.minimum(taus[:, None], caps[None, :])
        times = np.diff(cumulative_times, axis=0, prepend=0.0)
        np.clip(times, 0.0, None, out=times)  # float dust from the diff
    return NaiveSolution(times=times, work=work, profile=profile, temp_deadlines=temp_deadlines)


@dataclass(frozen=True)
class ProfileSupergradient:
    """Prices of Algorithm 2's LP at profile ``L``, read as a bound on Φ.

    ``value`` is the LP dual objective at ``L`` (at least Φ(L), equal to
    it up to the binding tolerance); ``g_lo`` and ``g_hi`` bound Φ's rate
    of change per second of machine ``r``'s profile, upward and downward.
    """

    loads: np.ndarray  # (m,) the profile L the prices were read at (s)
    value: float  # dual objective at L (accuracy)
    g_lo: np.ndarray  # (m,) accuracy per second, bounds growth of L_r
    g_hi: np.ndarray  # (m,) accuracy per second, bounds shrinkage of L_r

    def bound(self, limits: np.ndarray) -> float:
        """Upper bound on Φ(limits): ``value + Σ_r g_r·(L'_r − L_r)``."""
        delta = limits - self.loads
        return self.value + float(np.where(delta > 0.0, self.g_lo, self.g_hi) @ delta)


def profile_supergradient(instance: ProblemInstance, naive: NaiveSolution) -> Optional[ProfileSupergradient]:
    """One-sided supergradients of Φ at the profile Algorithm 2 just solved.

    Φ(L) is the optimum of the equivalent-machine LP ``max Σ_j a_j(w_j)``
    subject to ``Σ_{k≤j} w_k ≤ D_j(L)``.  For any non-increasing task
    price ``Π ≥ 0`` the prefix prices ``π_j = Π_j − Π_{j+1} ≥ 0`` and the
    piece prices ``μ = max(0, slope − Π_task)`` are dual-feasible, so weak
    duality gives, for every profile ``L'``::

        Φ(L') ≤ Σ_j a_j(0) + Σ_j π_j·D_j(L') + Σ_pieces μ·width.

    ``D_j(L) = Σ_r s_r·min(d_j, L_r, d_max)`` is concave in each ``L_r``:
    its right derivative is ``s_r`` for ``d_j > cap_r`` and its left
    derivative ``s_r`` for ``d_j ≥ cap_r`` (0 once ``L_r > d_max``).
    Hence ``Φ(L') ≤ value + Σ_r g_r·(L'_r − L_r)`` with ``g_lo`` where
    ``L'_r > L_r`` and ``g_hi`` where ``L'_r < L_r``, and
    ``g_r = s_r·Σ_j π_j`` over those tasks — which telescopes to
    ``s_r·Π`` at the first such task, because deadlines are sorted.

    The prices are chosen so the bound is tight at ``L``: work within
    ``1e-9·f_max`` of a breakpoint snaps to it (as RefineProfile's
    marginals do); prefixes whose slack is within relative ε = 1e-9 of
    ``D_j`` are binding; working back from the last binding prefix, Π is
    the running maximum of each block's largest marginal gain (the
    smallest price complementary slackness allows).  A task after the
    last binding prefix must then be saturated (gain 0); a funded task
    must not lose less than its block's price.  If either fails the
    work is not optimal at these prices and ``None`` is returned.

    Tightness.  Under complementary slackness ``value − Φ(L) =
    Σ_j π_j·slack_j``.  Each binding slack is at most ε·D_j, and
    ``Σ_j π_j·W_j = Σ_j Π_j·w_j ≤ Σ_j (a_j(w_j) − a_j(0)) ≤ Φ(L)`` by
    concavity, so ``Σ_j π_j·D_j ≤ Φ(L)/(1 − ε)`` and treating near-binding
    prefixes as binding costs at most about ε·Φ(L); a snapped task adds
    at most its first slope times 1e-9·``f_max``.  That excess is part of
    ``value``, never assumed away, so it only loosens the bound.

    Margin.  Callers compare ``bound + 1e-9·max(|Φ|, 1)`` with accuracies
    from ``Schedule.total_accuracy``.  The margin covers rounding only:
    that sum, Algorithm 2's water-fill and the dot products here each
    err by O(n·2⁻⁵³) relative to Φ, about 1e-13 at n = 160, four orders
    below it.  A larger margin only prunes less.
    """
    table = instance.tasks.segment_table
    deadlines = instance.tasks.deadlines
    n = deadlines.size
    work = naive.work
    temp = naive.temp_deadlines

    # Marginals at the work, snapped to a breakpoint within float dust of
    # one: ``pos`` is that breakpoint, or the piece the work lies inside.
    bp, slopes, pieces = table.breakpoints, table.slopes, table.n_segments
    rows = np.arange(n)
    near = np.abs(bp - work[:, None]) <= _BINDING_RTOL * table.f_max[:, None]
    on = near.any(axis=1)
    pos = np.where(on, near.argmax(axis=1), (bp <= work[:, None]).sum(axis=1) - 1)
    gains = np.where(pos >= pieces, 0.0, slopes[rows, np.minimum(pos, slopes.shape[1] - 1)])
    losses = slopes[rows, np.clip(pos - on, 0, pieces - 1)]
    funded = np.where(on, pos > 0, work > 0.0)

    # Binding prefixes of the equivalent machine, and the block prices.
    slack = temp - np.cumsum(work)
    ends = np.flatnonzero(slack <= _BINDING_RTOL * temp)
    last = int(ends[-1]) + 1 if ends.size else 0
    if last < n and gains[last:].max() > 0.0:
        return None  # unsaturated work after every binding prefix
    prices = np.zeros(n + 1)  # Π_j, with Π_{n+1} = 0
    if last:
        starts = np.concatenate([[0], ends[:-1] + 1])
        block = np.maximum.reduceat(gains[:last], starts)
        block = np.maximum.accumulate(block[::-1])[::-1]
        prices[:last] = np.repeat(block, np.diff(np.append(starts, last)))
    if np.any(prices[:n][funded] > losses[funded]):
        return None

    pi = prices[:n] - prices[1:]
    mu = np.maximum(table.slope - prices[table.task], 0.0)
    value = float(table.accuracies[:, 0].sum() + pi @ temp + mu @ table.width)

    speeds = instance.cluster.speeds
    loads = naive.profile.limits
    caps = np.minimum(loads, instance.tasks.d_max)
    g_lo = speeds * prices[np.searchsorted(deadlines, caps, side="right")]
    g_hi = speeds * prices[np.searchsorted(deadlines, caps, side="left")]
    g_hi[loads > instance.tasks.d_max] = 0.0
    return ProfileSupergradient(loads=loads, value=value, g_lo=g_lo, g_hi=g_hi)
