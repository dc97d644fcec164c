"""Failure-aware replanning: re-batch unfinished work onto survivors.

:func:`~repro.simulator.failures.replay_with_failures` measures what a
*stale* plan loses to an outage — the dead machine's queue simply never
runs.  A production scheduler replans instead: at each failure event the
remaining work is re-batched as a fresh DSCT-EA instance over the
surviving machines against the *remaining* energy budget, and execution
continues from the new plan.

:func:`replay_with_replanning` implements that loop on the replay
substrate:

* execution advances machine queues (back-to-back, EDF order, exactly
  the :func:`replay_with_failures` semantics) up to the next failure
  event;
* an **outage** kills the machine: the share in flight is truncated with
  partial credit, the rest of its queue becomes *disrupted* work;
* a **slowdown** rescales the machine's speed from the event on;
* with ``replan=True`` every event triggers a global preemptive replan:
  each unfinished task whose deadline has not passed re-enters a
  *residual* instance — its accuracy curve shifted by the work already
  credited, its deadline reduced by the current time, the cluster
  reduced to survivors at their effective (slowed) speeds, and the
  budget reduced to what the original budget has left — which the
  scheduler solves to produce the new queues.

The report credits work across all plan generations, so the realised
accuracy of a replanned run is directly comparable to the stale replay
on the same instance and failure model (:func:`compare_replanning`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..algorithms.base import Scheduler
from ..core.accuracy import PiecewiseLinearAccuracy
from ..core.instance import ProblemInstance
from ..core.machine import Cluster, Machine
from ..core.schedule import Schedule
from ..core.task import Task, TaskSet
from ..simulator.failures import FailureModel, FailureReport, Outage, replay_with_failures
from ..telemetry import get_collector
from ..utils.errors import ReproError
from ..utils.validation import require

__all__ = [
    "ReplanReport",
    "ReplanComparison",
    "replay_with_replanning",
    "compare_replanning",
    "residual_accuracy",
]

#: Deadlines with less slack than this are not worth replanning for.
_MIN_RESIDUAL_DEADLINE = 1e-6
#: Residual work below this many FLOP is treated as already complete.
_MIN_RESIDUAL_WORK = 1e-6


def residual_accuracy(acc: PiecewiseLinearAccuracy, f_done: float) -> Optional[PiecewiseLinearAccuracy]:
    """The accuracy curve of a task that already received ``f_done`` FLOP.

    ``a~(g) = a(f_done + g)`` — the original concave curve shifted left,
    starting at the accuracy already achieved.  Returns ``None`` when the
    task is (numerically) complete, i.e. no residual work remains.

    When ``f_done`` lies just below a breakpoint, the leading piece is a
    sliver whose accuracy rise spans a few ulps, so its slope is
    quantised and can read below the next piece's.  Such a sliver is
    merged into the next piece: the merged slope averages the two, so it
    is at least the next one's and the curve stays concave.
    """
    require(f_done >= 0, f"f_done must be >= 0, got {f_done}")
    if f_done <= 0.0:
        return acc
    remaining = acc.f_max - f_done
    if remaining <= _MIN_RESIDUAL_WORK:
        return None
    keep = acc.breakpoints > f_done + _MIN_RESIDUAL_WORK
    points = np.concatenate([[0.0], acc.breakpoints[keep] - f_done])
    values = np.concatenate([[acc.value(f_done)], acc.breakpoint_accuracies[keep]])
    if points.size > 2:
        slopes = np.diff(values[:3]) / np.diff(points[:3])
        if slopes[0] < slopes[1]:
            points, values = np.delete(points, 1), np.delete(values, 1)
    return PiecewiseLinearAccuracy(points, values)


@dataclass
class _MachineState:
    """Execution state of one machine between failure events."""

    queue: List[Tuple[int, float]] = field(default_factory=list)  # (task, remaining FLOP)
    clock: float = 0.0
    factor: float = 1.0  # slowdown speed multiplier
    alive: bool = True


@dataclass(frozen=True)
class ReplanReport:
    """Realised outcome of a (re)planned execution under failures."""

    task_flops: np.ndarray
    task_accuracies: np.ndarray
    task_completion: np.ndarray
    machine_busy: np.ndarray
    energy: float
    deadline_misses: tuple
    disrupted_tasks: tuple  #: tasks whose queued work an outage destroyed
    n_replans: int
    dead_machines: tuple

    @property
    def mean_accuracy(self) -> float:
        return float(self.task_accuracies.mean())

    @property
    def total_accuracy(self) -> float:
        return float(self.task_accuracies.sum())


@dataclass(frozen=True)
class ReplanComparison:
    """Stale-plan replay vs. failure-aware replanning on one scenario."""

    stale: FailureReport
    replanned: ReplanReport
    nominal_accuracy: float  #: total accuracy of the failure-free plan

    @property
    def accuracy_recovered(self) -> float:
        """Total accuracy the replan won back over the stale plan."""
        return self.replanned.total_accuracy - self.stale.total_accuracy

    @property
    def stale_retention(self) -> float:
        """Stale realised / nominal total accuracy."""
        return self.stale.total_accuracy / max(self.nominal_accuracy, 1e-12)

    @property
    def replanned_retention(self) -> float:
        """Replanned realised / nominal total accuracy."""
        return self.replanned.total_accuracy / max(self.nominal_accuracy, 1e-12)


def _advance(
    state: _MachineState,
    r: int,
    until: float,
    speeds: np.ndarray,
    flops: np.ndarray,
    busy: np.ndarray,
    completion: np.ndarray,
) -> None:
    """Run machine ``r``'s queue forward to time ``until`` (inclusive)."""
    if not state.alive:
        return
    while state.queue and state.clock < until - 1e-15:
        j, work = state.queue[0]
        speed = speeds[r] * state.factor
        duration = work / speed
        if state.clock + duration <= until + 1e-15:
            state.clock += duration
            flops[j] += work
            busy[r] += duration
            completion[j] = max(completion[j], state.clock)
            state.queue.pop(0)
        else:
            done_wall = until - state.clock
            done_work = done_wall * speed
            flops[j] += done_work
            busy[r] += done_wall
            completion[j] = max(completion[j], until)
            state.queue[0] = (j, work - done_work)
            state.clock = until


def _queues_from_schedule(schedule: Schedule, speeds: np.ndarray) -> List[List[Tuple[int, float]]]:
    times = schedule.times
    n, m = times.shape
    queues: List[List[Tuple[int, float]]] = []
    for r in range(m):
        queues.append([(j, float(times[j, r]) * float(speeds[r])) for j in range(n) if times[j, r] > 0.0])
    return queues


def replay_with_replanning(
    instance: ProblemInstance,
    scheduler: Scheduler,
    failures: FailureModel,
    *,
    replan: bool = True,
    schedule: Optional[Schedule] = None,
) -> ReplanReport:
    """Execute a plan under failures, replanning survivors at each event.

    ``scheduler`` produces both the initial plan (unless ``schedule`` is
    given) and every replan — pass a
    :class:`~repro.resilience.fallback.FallbackChain` to bound replan
    latency.  With ``replan=False`` the stale plan runs to the end
    (matching :func:`replay_with_failures` semantics), which is the
    baseline the headline experiment compares against.
    """
    n, m = instance.n_tasks, instance.n_machines
    for o in failures.outages:
        require(0 <= o.machine < m, f"outage references machine {o.machine} (m = {m})")
    for s in failures.slowdowns:
        require(0 <= s.machine < m, f"slowdown references machine {s.machine} (m = {m})")

    tele = get_collector()
    if schedule is None:
        schedule = scheduler.solve(instance)
    speeds = instance.cluster.speeds
    powers = instance.cluster.powers
    deadlines = instance.tasks.deadlines

    flops = np.zeros(n)
    completion = np.zeros(n)
    busy = np.zeros(m)
    disrupted: set = set()
    dead: List[int] = []
    n_replans = 0

    states = [_MachineState(queue=q) for q in _queues_from_schedule(schedule, speeds)]

    def advance_all(until: float) -> None:
        for r, state in enumerate(states):
            _advance(state, r, until, speeds, flops, busy, completion)

    with tele.span("replan.replay"):
        for event in failures.events():
            advance_all(event.at)
            if isinstance(event, Outage):
                state = states[event.machine]
                if state.alive:
                    state.alive = False
                    dead.append(event.machine)
                    disrupted.update(j for j, _ in state.queue)
                    state.queue.clear()
                    tele.counter("replan_outages_total").inc()
            else:  # Slowdown
                states[event.machine].factor = event.factor
            if replan:
                n_replans += _replan_at(
                    event.at, instance, scheduler, states, flops, busy, powers, deadlines
                )
        # Drain what remains of the final plan.
        advance_all(float("inf"))

    accuracies = instance.tasks.accuracies(flops)
    misses = tuple(
        int(j) for j in range(n) if flops[j] > 0 and completion[j] > deadlines[j] * (1.0 + 1e-9)
    )
    if n_replans:
        tele.counter("replans_total").add(n_replans)
    return ReplanReport(
        task_flops=flops,
        task_accuracies=accuracies,
        task_completion=completion,
        machine_busy=busy,
        energy=float(busy @ powers),
        deadline_misses=misses,
        disrupted_tasks=tuple(sorted(disrupted)),
        n_replans=n_replans,
        dead_machines=tuple(dead),
    )


def _replan_at(
    now: float,
    instance: ProblemInstance,
    scheduler: Scheduler,
    states: List[_MachineState],
    flops: np.ndarray,
    busy: np.ndarray,
    powers: np.ndarray,
    deadlines: np.ndarray,
) -> int:
    """Rebuild every queue from a residual solve at time ``now``.

    Returns 1 when a replan was performed, 0 when nothing could be done
    (no survivors, no residual work, or the residual solve failed — in
    the failure case the stale queues keep running, which is the safest
    degraded behaviour).
    """
    tele = get_collector()
    alive = [r for r, s in enumerate(states) if s.alive]
    if not alive:
        return 0

    # Residual task pool: unfinished work with usable deadline slack.
    pool: List[Tuple[int, Task]] = []
    for j in range(instance.n_tasks):
        slack = float(deadlines[j]) - now
        if slack <= _MIN_RESIDUAL_DEADLINE:
            continue
        acc = residual_accuracy(instance.tasks[j].accuracy, float(flops[j]))
        if acc is None:
            continue
        pool.append((j, Task(deadline=slack, accuracy=acc)))
    if not pool:
        return 0

    spent = float(busy @ powers)
    remaining_budget = instance.budget - spent if np.isfinite(instance.budget) else instance.budget
    remaining_budget = max(remaining_budget, 0.0)

    # Survivors at their effective speeds; scaling efficiency with the
    # slowdown factor keeps power draw constant (P = s / E).
    machines = []
    for r in alive:
        base = instance.cluster[r]
        f = states[r].factor
        machines.append(
            Machine(speed=base.speed * f, efficiency=base.efficiency * f, name=base.name)
        )
    cluster = Cluster(machines)

    # Tasks are deadline-sorted in the original instance and all residual
    # deadlines are shifted by the same ``now``, so EDF order survives.
    index_map = [j for j, _ in pool]
    residual = ProblemInstance(
        TaskSet([t for _, t in pool], assume_sorted=True), cluster, remaining_budget
    )
    try:
        with tele.span("replan.solve", at=f"{now:.3f}"):
            new_plan = scheduler.solve(residual)
    except ReproError:
        tele.counter("replan_failures_total").inc()
        return 0  # keep executing whatever stale queues survive

    eff_speeds = cluster.speeds
    new_times = new_plan.times
    for rr, r in enumerate(alive):
        states[r].queue = [
            (index_map[i], float(new_times[i, rr]) * float(eff_speeds[rr]))
            for i in range(len(index_map))
            if new_times[i, rr] > 0.0
        ]
        states[r].clock = now
    return 1


def compare_replanning(
    instance: ProblemInstance,
    scheduler: Scheduler,
    failures: FailureModel,
    *,
    schedule: Optional[Schedule] = None,
) -> ReplanComparison:
    """The headline experiment: stale replay vs. replanning, same scenario."""
    if schedule is None:
        schedule = scheduler.solve(instance)
    stale = replay_with_failures(instance, schedule, failures)
    replanned = replay_with_replanning(instance, scheduler, failures, schedule=schedule)
    return ReplanComparison(
        stale=stale, replanned=replanned, nominal_accuracy=schedule.total_accuracy
    )
