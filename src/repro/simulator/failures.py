"""Failure injection for the cluster simulator.

The paper assumes machines never fail; a production scheduler cares what
a plan loses when they do.  :class:`FailureModel` injects machine
outages and slowdowns into a schedule replay:

* an **outage** stops a machine at a given time: the share running at
  that moment is truncated, queued shares never run;
* a **slowdown** multiplies a machine's speed from a given time onward
  (thermal throttling, co-location interference): shares take
  proportionally longer and may blow their deadlines.

:func:`replay_with_failures` executes a schedule under a failure model
and reports the *realised* accuracy, energy and deadline misses —
quantifying the robustness margin of DSCT-EA-APPROX plans (e.g. how much
accuracy a mid-horizon outage of the most-loaded machine costs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from ..core.instance import ProblemInstance
from ..core.schedule import Schedule
from ..utils.errors import ValidationError
from ..utils.validation import check_nonnegative, require

__all__ = [
    "Outage",
    "Slowdown",
    "FailureEvent",
    "FailureModel",
    "FailureReport",
    "replay_with_failures",
    "replay_with_duration_noise",
]


@dataclass(frozen=True)
class Outage:
    """Machine ``machine`` stops executing at time ``at`` (seconds)."""

    machine: int
    at: float

    def __post_init__(self) -> None:
        check_nonnegative(self.at, "at")


@dataclass(frozen=True)
class Slowdown:
    """Machine ``machine`` runs at ``factor`` × speed from time ``at``."""

    machine: int
    at: float
    factor: float

    def __post_init__(self) -> None:
        check_nonnegative(self.at, "at")
        require(0.0 < self.factor <= 1.0, f"slowdown factor must lie in (0, 1], got {self.factor}")


@dataclass(frozen=True)
class FailureModel:
    """A set of injected failures (at most one outage/slowdown per machine)."""

    outages: tuple[Outage, ...] = ()
    slowdowns: tuple[Slowdown, ...] = ()

    def __post_init__(self) -> None:
        for group, name in ((self.outages, "outage"), (self.slowdowns, "slowdown")):
            machines = [f.machine for f in group]
            if len(machines) != len(set(machines)):
                raise ValidationError(f"at most one {name} per machine")

    def outage_at(self, machine: int) -> float:
        for o in self.outages:
            if o.machine == machine:
                return o.at
        return math.inf

    def slowdown_for(self, machine: int) -> Optional[Slowdown]:
        for s in self.slowdowns:
            if s.machine == machine:
                return s
        return None

    # -- event-stream view (consumed by the online simulator, which reacts
    # -- to failures one event at a time) ---------------------------------------

    def events(self) -> Tuple["FailureEvent", ...]:
        """All failures as one time-ordered stream.

        Ties break outage-first: a machine that dies at ``t`` never gets
        to run slower from ``t``.
        """
        stream: List[FailureEvent] = list(self.outages) + list(self.slowdowns)
        return tuple(sorted(stream, key=lambda e: (e.at, isinstance(e, Slowdown))))


#: One entry of :meth:`FailureModel.events`.
FailureEvent = Union[Outage, Slowdown]


@dataclass(frozen=True)
class FailureReport:
    """Realised outcome of a schedule under injected failures."""

    task_flops: np.ndarray
    task_accuracies: np.ndarray
    task_completion: np.ndarray
    machine_busy: np.ndarray
    energy: float
    deadline_misses: tuple[int, ...]
    truncated_tasks: tuple[int, ...]

    @property
    def mean_accuracy(self) -> float:
        return float(self.task_accuracies.mean())

    @property
    def total_accuracy(self) -> float:
        return float(self.task_accuracies.sum())


def replay_with_failures(
    instance: ProblemInstance,
    schedule: Schedule,
    failures: FailureModel,
) -> FailureReport:
    """Execute ``schedule`` under ``failures``; returns realised metrics.

    Machines run their shares back-to-back in EDF order (the model's
    execution semantics).  A slowdown stretches the portion of a share
    executed after its onset; an outage truncates the share in flight
    and cancels the rest of the queue.  Flops are credited for the work
    actually performed, and the tasks' accuracy functions convert them
    into realised accuracy.
    """
    n, m = instance.n_tasks, instance.n_machines
    for o in failures.outages:
        if not 0 <= o.machine < m:
            raise ValidationError(f"outage references machine {o.machine} (m = {m})")
    for s in failures.slowdowns:
        if not 0 <= s.machine < m:
            raise ValidationError(f"slowdown references machine {s.machine} (m = {m})")

    speeds = instance.cluster.speeds
    powers = instance.cluster.powers
    deadlines = instance.tasks.deadlines
    times = schedule.times

    flops = np.zeros(n)
    completion = np.zeros(n)
    busy = np.zeros(m)
    truncated: List[int] = []

    for r in range(m):
        outage = failures.outage_at(r)
        slow = failures.slowdown_for(r)
        clock = 0.0
        for j in range(n):
            nominal = float(times[j, r])
            if nominal <= 0.0:
                continue
            work = nominal * speeds[r]  # FLOP this share owes
            start = clock
            # Wall time to perform `work`, given the slowdown onset.
            if slow is None or start + nominal <= slow.at:
                duration = nominal
            else:
                before = max(slow.at - start, 0.0)
                remaining_work = work - before * speeds[r]
                duration = before + remaining_work / (speeds[r] * slow.factor)
            end = start + duration

            if start >= outage:
                truncated.append(j)
                continue  # never started
            if end > outage:
                # Truncated mid-share: credit the work done until the outage.
                done_wall = outage - start
                if slow is None or outage <= slow.at:
                    done_work = done_wall * speeds[r]
                else:
                    before = max(slow.at - start, 0.0)
                    done_work = before * speeds[r] + (done_wall - before) * speeds[r] * slow.factor
                flops[j] += done_work
                busy[r] += done_wall
                completion[j] = max(completion[j], outage)
                truncated.append(j)
                clock = outage
                continue

            flops[j] += work
            busy[r] += duration
            completion[j] = max(completion[j], end)
            clock = end

    accuracies = instance.tasks.accuracies(flops)
    misses = tuple(
        int(j) for j in range(n) if flops[j] > 0 and completion[j] > deadlines[j] * (1.0 + 1e-9)
    )
    energy = float(busy @ powers)
    return FailureReport(
        task_flops=flops,
        task_accuracies=accuracies,
        task_completion=completion,
        machine_busy=busy,
        energy=energy,
        deadline_misses=misses,
        truncated_tasks=tuple(sorted(set(truncated))),
    )


def replay_with_duration_noise(
    instance: ProblemInstance,
    schedule: Schedule,
    *,
    sigma: float = 0.1,
    seed=None,
) -> FailureReport:
    """Execute a schedule whose share durations jitter log-normally.

    Profiled latencies are estimates; at execution each share's duration
    is multiplied by ``exp(N(0, sigma))`` (mean ~1).  The work performed
    is unchanged — the share runs to completion, just not on time — so
    accuracy is preserved while deadlines absorb the noise.  The report's
    ``deadline_misses`` is the quantity of interest: it measures how much
    deadline slack the plan's cut-and-shift left as a safety margin.
    """
    from ..utils.rng import ensure_rng
    from ..utils.validation import check_nonnegative

    check_nonnegative(sigma, "sigma")
    rng = ensure_rng(seed)
    n, m = instance.n_tasks, instance.n_machines
    speeds = instance.cluster.speeds
    powers = instance.cluster.powers
    deadlines = instance.tasks.deadlines
    times = schedule.times

    flops = np.zeros(n)
    completion = np.zeros(n)
    busy = np.zeros(m)
    for r in range(m):
        clock = 0.0
        for j in range(n):
            nominal = float(times[j, r])
            if nominal <= 0.0:
                continue
            factor = float(np.exp(rng.normal(0.0, sigma))) if sigma > 0 else 1.0
            duration = nominal * factor
            clock += duration
            busy[r] += duration
            flops[j] += nominal * speeds[r]  # the work owed is completed
            completion[j] = max(completion[j], clock)

    accuracies = instance.tasks.accuracies(flops)
    misses = tuple(
        int(j) for j in range(n) if flops[j] > 0 and completion[j] > deadlines[j] * (1.0 + 1e-9)
    )
    return FailureReport(
        task_flops=flops,
        task_accuracies=accuracies,
        task_completion=completion,
        machine_busy=busy,
        energy=float(busy @ powers),
        deadline_misses=misses,
        truncated_tasks=(),
    )
