"""Algorithm 4 — DSCT-EA-FR-OPT.

Optimal solver for the fractional relaxation DSCT-EA-FR:
:func:`~repro.algorithms.naive_solution.compute_naive_solution`
(Algorithm 2) followed by
:func:`~repro.algorithms.refine_profile.refine_profile` (Algorithm 3).
Complexity ``O(n² m²)`` (paper Theorem 2).

The result doubles as the paper's **DSCT-EA-UB**: because every integral
schedule is also a fractional one, the fractional optimum upper-bounds
the DSCT-EA optimum, and Algorithm 5 rounds it into an integral schedule.
"""

from __future__ import annotations

import math
import time
from typing import Optional

import numpy as np

from ..core.instance import ProblemInstance
from ..core.profiles import EnergyProfile
from ..core.schedule import Schedule
from ..telemetry import get_collector
from .base import Scheduler, SolveInfo, SolveResult
from .naive_solution import compute_naive_solution, profile_supergradient
from .refine_profile import refine_profile

__all__ = ["FractionalScheduler", "solve_fractional"]


#: Relative accuracy improvement below which the profile polish stops.
_POLISH_RTOL = 1e-9
#: Relative rounding margin on a candidate's supergradient bound.
_BOUND_RTOL = 1e-9


def _ternary_best_frac(phi_line, lo: float = 0.0, hi: float = 1.0, iters: int = 12) -> tuple[float, float]:
    """Maximise a concave 1-D function by ternary search; returns (x, value)."""
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if phi_line(m1) < phi_line(m2):
            lo = m1
        else:
            hi = m2
    x = 0.5 * (lo + hi)
    return x, phi_line(x)


def _polish_profiles(
    instance: ProblemInstance,
    schedule: Schedule,
    *,
    max_rounds: int,
    thorough: bool = False,
) -> tuple[Schedule, int, int]:
    """Coordinate/transfer search over energy profiles.

    The exchange refinement can converge suboptimally in two ways:

    * with **leftover budget** it cannot spend (the best growable pair is
      deadline-blocked) — fixed by granting the leftover to each
      machine's profile in turn;
    * with the **budget fully spent but misallocated across machines**
      (spending machine r's share on machine r' would be better, but
      getting there needs an accuracy-neutral restructuring the pairwise
      exchange cannot express) — fixed by moving a slice of one
      machine's profile energy to another.

    Candidate profiles are evaluated with Algorithm 2 alone: Alg. 2 is
    *optimal for a fixed profile*, so its accuracy is exactly Φ(profile)
    — no refinement needed to compare candidates.  Only an accepted
    winner is re-refined (which may shift its implied profile further).
    Φ is concave over the profile polytope, so this is a monotone local
    search; in testing it closes every observed exchange-stall gap to
    machine precision.

    Every Alg. 2 run also yields a supergradient of Φ at its profile
    (:func:`profile_supergradient`), and since Φ is concave each one is a
    cut that bounds Φ everywhere: the zeroth candidate's cut bounds the
    round's candidates from the current loads, and later runs (this
    round's or earlier rounds') add cuts, read only when the cuts so far
    do not settle a candidate.  A grant or default transfer is evaluated only if every
    bound, plus a rounding margin, beats the best accuracy so far: a
    skipped candidate could not have passed the ``acc > best_acc`` test,
    so the search takes the same steps as without pruning.  The
    ``thorough`` line searches are not pruned.  Returns the schedule,
    the rounds accepted and the number of Alg. 2 evaluations.
    """
    budget = instance.budget
    if not math.isfinite(budget):
        return schedule, 0, 0
    powers = instance.cluster.powers
    d_max = instance.tasks.d_max
    m = instance.n_machines

    tele = get_collector()
    evaluations = 0
    unread: list = []  # Alg. 2 runs whose prices are not read yet
    cuts: list = []  # supergradients of Φ read from earlier runs

    def phi(limits: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal evaluations
        evaluations += 1
        naive = compute_naive_solution(instance, EnergyProfile(limits))
        unread.append(naive)
        return Schedule(instance, naive.times).total_accuracy, naive.times

    def may_win(limits: np.ndarray, best_acc: float) -> bool:
        """False when some cut proves ``Φ(limits) <= best_acc``."""
        margin = _BOUND_RTOL * max(abs(best_acc), 1.0)
        win = all(cut.bound(limits) + margin > best_acc for cut in cuts)
        while win and unread:
            cut = profile_supergradient(instance, unread.pop(0))
            if cut is not None:
                cuts.append(cut)
                win = cut.bound(limits) + margin > best_acc
        tele.counter("polish_candidates_total", outcome="evaluated" if win else "pruned").inc()
        return win

    rounds = 0
    for _ in range(max_rounds):
        leftover = budget - schedule.total_energy
        loads = schedule.machine_loads
        best_acc = schedule.total_accuracy
        best_times: Optional[np.ndarray] = None

        # Zeroth candidate: re-solve the *current* profile with Alg. 2.
        # The exchange refinement can leave a solution that is no longer
        # optimal for its own implied profile (its moves are pairwise;
        # Alg. 2 restructures globally), so this one extra evaluation
        # recovers Φ(loads) exactly — and its prices bound every other
        # candidate.
        acc0, times0 = phi(loads)
        if acc0 > best_acc:
            best_acc, best_times = acc0, times0

        if leftover > 1e-9 * max(budget, 1.0):
            # Spend the leftover: grant it to each machine in turn.
            for r in range(m):
                headroom = d_max - loads[r]
                if headroom <= 0:
                    continue
                grant = min(leftover / powers[r], headroom)
                limits = loads.copy()
                limits[r] += grant
                if not may_win(limits, best_acc):
                    continue
                acc, times = phi(limits)
                if acc > best_acc:
                    best_acc, best_times = acc, times
        elif m > 1:
            # Budget exhausted but possibly misallocated: move a slice of
            # one machine's profile energy to another.  Candidates are
            # targeted to keep the scan cheap: a *recipient* must cap
            # below the deadline of some task that still wants work
            # (otherwise extra profile cannot increase capacity in any
            # task's window), ranked by the desire it could serve; a
            # *donor* hosts the cheapest accuracy-per-Joule work.  A
            # short geometric line search per (donor, recipient) pair
            # covers coarse and fine moves.
            tasks = instance.tasks
            flops = np.minimum(schedule.task_flops, tasks.f_max)
            gains = tasks.segment_table.marginal_gains(flops)
            losses = tasks.segment_table.marginal_losses(flops)
            effs = instance.cluster.efficiencies
            deadlines = tasks.deadlines
            desiring = gains > 0.0

            recipient_scores = np.full(m, -np.inf)
            for r in range(m):
                eligible = desiring & (loads[r] < deadlines * (1.0 - 1e-12))
                if np.any(eligible) and d_max - loads[r] > 0:
                    recipient_scores[r] = float(gains[eligible].max()) * effs[r]
            donor_scores = np.full(m, np.inf)
            for r in range(m):
                hosted = schedule.times[:, r] > 0.0
                if np.any(hosted) and loads[r] * powers[r] > 1e-12 * max(budget, 1.0):
                    donor_scores[r] = float(losses[hosted].min()) * effs[r]

            if thorough:
                # Every ordered pair, with a ternary line search along the
                # transfer direction (Φ is concave along any line, so the
                # search is exact up to resolution).  Slow but closes the
                # remaining exchange-stall gaps to solver precision.
                recipients = [r for r in range(m) if np.isfinite(recipient_scores[r])]
                donors = [r for r in range(m) if np.isfinite(donor_scores[r])]
            else:
                recipients = [
                    r for r in np.argsort(-recipient_scores)[:2] if np.isfinite(recipient_scores[r])
                ]
                donors = [r for r in np.argsort(donor_scores)[:2] if np.isfinite(donor_scores[r])]

            for r_from in donors:
                donor_energy = loads[r_from] * powers[r_from]
                for r_to in recipients:
                    if r_to == r_from:
                        continue
                    headroom = d_max - loads[r_to]
                    if headroom <= 0:
                        continue
                    max_transfer = min(donor_energy, headroom * powers[r_to])

                    def limits_for(delta, r_from=r_from, r_to=r_to):
                        limits = loads.copy()
                        limits[r_from] -= delta / powers[r_from]
                        limits[r_to] += delta / powers[r_to]
                        return limits if limits[r_from] >= 0 else None

                    if thorough:
                        cache: dict = {}

                        def phi_line(x, limits_for=limits_for, cache=cache):
                            if x not in cache:
                                limits = limits_for(x * max_transfer)
                                cache[x] = phi(limits)[0] if limits is not None else -np.inf
                            return cache[x]

                        x, acc = _ternary_best_frac(phi_line)
                        if acc > best_acc:
                            limits = limits_for(x * max_transfer)
                            if limits is not None:
                                acc, times = phi(limits)
                                if acc > best_acc:
                                    best_acc, best_times = acc, times
                    else:
                        for frac in (0.5, 0.15):
                            limits = limits_for(frac * donor_energy)
                            if limits is None or not may_win(limits, best_acc):
                                continue
                            acc, times = phi(limits)
                            if acc > best_acc:
                                best_acc, best_times = acc, times

        if best_times is None or best_acc <= schedule.total_accuracy * (1.0 + _POLISH_RTOL):
            break
        refined = refine_profile(instance, best_times)
        candidate = Schedule(instance, refined.times)
        # keep whichever is better (refinement never hurts, but guard).
        if candidate.total_accuracy >= best_acc:
            schedule = candidate
        else:
            schedule = Schedule(instance, best_times)
        rounds += 1
    return schedule, rounds, evaluations


def solve_fractional(
    instance: ProblemInstance,
    *,
    refine: bool = True,
    profile: Optional[EnergyProfile] = None,
    polish_rounds: int = 8,
    thorough: bool = False,
) -> tuple[Schedule, dict]:
    """Run DSCT-EA-FR-OPT; returns the schedule and a metadata dict.

    ``refine=False`` stops after Algorithm 2 (the naive-profile optimum) —
    used by the ablation benchmarks to quantify what RefineProfile buys.
    ``polish_rounds`` bounds the profile coordinate/transfer search that
    repairs exchange stalls (0 disables it).  ``thorough=True`` makes that
    search exhaustive (all machine pairs + ternary line search): slower,
    but closes the residual stall gaps to solver precision — use it when
    quality matters more than runtime.
    """
    tele = get_collector()
    with tele.span("fractional.solve"):
        with tele.span("fractional.naive"):
            naive = compute_naive_solution(instance, profile)
        meta: dict = {
            "naive_profile": naive.profile.limits.copy(),
            "refine_iterations": 0,
            "refine_converged": True,
            "polish_rounds": 0,
            "polish_evaluations": 0,
        }
        times = naive.times
        schedule = Schedule(instance, times)
        if refine:
            with tele.span("fractional.refine"):
                result = refine_profile(instance, times)
            meta["refine_iterations"] = result.iterations
            meta["refine_converged"] = result.converged
            tele.counter("refine_iterations_total").add(result.iterations)
            schedule = Schedule(instance, result.times)
            if polish_rounds > 0:
                with tele.span("fractional.polish"):
                    schedule, rounds, evaluations = _polish_profiles(
                        instance, schedule, max_rounds=polish_rounds, thorough=thorough
                    )
                meta["polish_rounds"] = rounds
                meta["polish_evaluations"] = evaluations
                tele.counter("polish_rounds_total").add(rounds)
        # The *final* energy profile: the busy time actually placed on each
        # machine (what Fig. 6 plots).
        meta["final_profile"] = schedule.machine_loads.copy()
    tele.counter("solver_runs_total", solver="fractional").inc()
    tele.gauge("last_solve_accuracy", solver="fractional").set(schedule.total_accuracy)
    return schedule, meta


class FractionalScheduler(Scheduler):
    """Scheduler façade for Algorithm 4 (a.k.a. DSCT-EA-UB)."""

    name = "DSCT-EA-FR-OPT"

    def __init__(self, *, refine: bool = True, thorough: bool = False):
        self.refine = refine
        self.thorough = thorough
        if not refine:
            self.name = "DSCT-EA-FR-NAIVE"

    def solve(self, instance: ProblemInstance) -> Schedule:
        schedule, _ = solve_fractional(instance, refine=self.refine, thorough=self.thorough)
        return schedule

    def solve_with_info(self, instance: ProblemInstance) -> SolveResult:
        start = time.perf_counter()
        schedule, meta = solve_fractional(instance, refine=self.refine, thorough=self.thorough)
        elapsed = time.perf_counter() - start
        info = SolveInfo(
            solver=self.name,
            optimal=bool(meta["refine_converged"]),
            status="ok" if meta["refine_converged"] else "iteration_limit",
            runtime_seconds=elapsed,
            extra=meta,
        )
        return SolveResult(schedule, info)
