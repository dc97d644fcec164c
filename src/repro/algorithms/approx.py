"""Algorithm 5 — DSCT-EA-APPROX, the integral approximation algorithm.

Rounds the optimal fractional solution (Algorithm 4) into a schedule
where every task runs on a single machine:

1. solve DSCT-EA-FR-OPT; record each machine's fractional load
   ``w_r^max = Σ_j t^f_jr`` — these act as per-machine energy-profile
   caps, so the rounded schedule can never exceed the fractional energy
   (and hence the budget);
2. walk tasks in EDF order, placing each on the least-loaded machine not
   yet at its cap, with processing time
   ``min(Σ_r t^f_jr, w_r^max − w_r, f_j^max / s_r)``
   (the last cap is implicit in the paper — time past ``f_max`` cannot
   raise accuracy and would waste budget);
3. cut-and-shift: on every machine, truncate any task that would finish
   past its deadline and pull the followers forward (paper lines 13–19).

The result carries the absolute guarantee of Eq. (13):
``OPT − G ≤ SOL ≤ OPT`` with ``G`` from
:func:`repro.algorithms.guarantees.performance_guarantee`.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.instance import ProblemInstance
from ..core.schedule import Schedule
from ..telemetry import get_collector
from .base import Scheduler, SolveInfo, SolveResult
from .fractional import solve_fractional

__all__ = ["ApproxScheduler", "round_fractional"]

_FULL_RTOL = 1e-9


def round_fractional(instance: ProblemInstance, fractional: Schedule) -> Schedule:
    """Steps 2–3 of Algorithm 5: round a fractional schedule integrally."""
    tele = get_collector()
    with tele.span("approx.round"):
        n, m = instance.n_tasks, instance.n_machines
        speeds = instance.cluster.speeds
        deadlines = instance.tasks.deadlines
        f_caps = instance.tasks.f_max

        w_max = fractional.machine_loads.tolist()  # per-machine caps (seconds)
        task_time = fractional.times.sum(axis=1).tolist()  # Σ_r t^f_jr
        speed_of = speeds.tolist()
        caps = f_caps.tolist()

        times = [[0.0] * m for _ in range(n)]
        loads = [0.0] * m
        hosted: list[list[int]] = [[] for _ in range(m)]  # each machine's tasks, EDF order
        full = [w <= _FULL_RTOL * max(w, 1.0) for w in w_max]

        for j in range(n):
            if all(full):
                break
            # Least-loaded open machine, lowest index on ties (as argmin).
            r = min((k for k in range(m) if not full[k]), key=loads.__getitem__)
            grant = min(task_time[j], w_max[r] - loads[r], caps[j] / speed_of[r])
            grant = max(grant, 0.0)
            times[j][r] = grant
            hosted[r].append(j)
            loads[r] += grant
            if loads[r] >= w_max[r] - _FULL_RTOL * max(w_max[r], 1.0):
                full[r] = True

        # Cut-and-shift: enforce deadlines machine by machine.  Tasks execute
        # in EDF (index) order, so starts are running sums; cutting a task
        # automatically shifts its followers forward.
        due = deadlines.tolist()
        truncated = 0
        for r in range(m):
            start = 0.0
            for j in hosted[r]:
                tj = times[j][r]
                if tj <= 0.0:
                    continue
                allowed = max(due[j] - start, 0.0)
                if tj > allowed:
                    tj = times[j][r] = allowed
                    truncated += 1
                start += tj
        tele.counter("approx_tasks_truncated_total").add(truncated)

    return Schedule(instance, np.array(times, dtype=float).reshape(n, m))


class ApproxScheduler(Scheduler):
    """Scheduler façade for Algorithm 5."""

    name = "DSCT-EA-APPROX"

    def __init__(self, *, refine: bool = True):
        #: Whether the underlying fractional solve runs RefineProfile;
        #: disabling it gives the ablation variant rounded from the naive
        #: profile only.
        self.refine = refine
        if not refine:
            self.name = "DSCT-EA-APPROX-NAIVE"

    def solve(self, instance: ProblemInstance) -> Schedule:
        return self.solve_with_info(instance).schedule

    def solve_with_info(self, instance: ProblemInstance) -> SolveResult:
        tele = get_collector()
        start = time.perf_counter()
        with tele.span("approx.solve"):
            fractional, meta = solve_fractional(instance, refine=self.refine)
            schedule = round_fractional(instance, fractional)
        tele.counter("solver_runs_total", solver="approx").inc()
        elapsed = time.perf_counter() - start
        info = SolveInfo(
            solver=self.name,
            optimal=False,
            status="ok",
            runtime_seconds=elapsed,
            extra={
                "fractional_accuracy": fractional.total_accuracy,
                "final_profile": meta["final_profile"],
                "naive_profile": meta["naive_profile"],
            },
        )
        return SolveResult(schedule, info)
