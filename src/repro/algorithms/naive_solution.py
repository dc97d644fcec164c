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

__all__ = ["NaiveSolution", "compute_naive_solution", "WaterFiller"]


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
    return NaiveSolution(times=times, work=work, profile=profile)
