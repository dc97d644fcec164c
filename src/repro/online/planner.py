"""Rolling-horizon online planner over a request stream.

The paper solves a static batch; a serving front-end sees a stream.  The
natural deployment (also used in its inspiration, Jellyfish [16]) is a
rolling horizon: buffer arrivals for a short planning window, then solve
the buffered batch as a DSCT-EA instance whose deadlines are the
requests' SLOs relative to a planning instant, and whose budget is the
window's share of a global power cap.

:func:`window_instance` is that step, shared by the three window loops.
The planning instant is the caller's: :class:`RollingHorizonPlanner` and
:class:`~repro.durability.run.DurableRun` plan at the window *start*, so
a request's work can be scheduled before the request arrives;
:class:`~repro.simulator.online_sim.OnlineSimulation` plans at the tick
that *closes* the window, over requests already arrived.  The two are not
interchangeable on short SLOs: on bursty streams with 0.5-2 s SLOs and
2 s windows, planning at close cut the durable planner's mean accuracy
from 0.409 to 0.231 and its on-time share from 0.82 to 0.54.

:class:`RollingHorizonPlanner` formalises the loop around any
:class:`~repro.algorithms.base.Scheduler`; the ``mlaas_online_serving``
example is a thin wrapper over it.  A global energy budget across
windows (paced grants, journal, resume) is
:meth:`RollingHorizonPlanner.run_durable`; execution under machine
failures, with or without replanning, is the simulator's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..algorithms.base import Scheduler
from ..core.instance import ProblemInstance
from ..core.machine import Cluster
from ..core.schedule import Schedule
from ..telemetry import ensure_trace, get_collector
from ..utils.errors import ValidationError
from ..utils.validation import check_positive
from ..workloads.arrivals import Request, window_batches
from ..workloads.generator import tasks_from_thetas

__all__ = ["WindowOutcome", "ServingReport", "RollingHorizonPlanner", "window_instance", "on_time_count"]


def window_instance(
    batch: Sequence[Request], now: float, cluster: Cluster, budget: float
) -> Tuple[np.ndarray, ProblemInstance]:
    """One window's batch as a DSCT-EA instance planned at instant ``now``.

    Each deadline is the request's absolute deadline measured from
    ``now``, floored at 1 ms so a request already due still yields a
    valid task.  Tasks are in EDF order with ties in batch order: task
    ``k`` is ``batch[order[k]]``.
    """
    deadlines = np.maximum([r.deadline - now for r in batch], 1e-3)
    order = np.argsort(deadlines, kind="stable")
    tasks = tasks_from_thetas([batch[i].theta_per_tflop for i in order], deadlines[order])
    return order, ProblemInstance(tasks, cluster, budget)


def on_time_count(schedule: Schedule, deadlines: np.ndarray) -> int:
    """Tasks of ``schedule`` that received work and finish by their deadline."""
    completion = schedule.completion_times.max(axis=1)
    return int(np.sum((schedule.task_flops > 0) & (completion <= deadlines + 1e-9)))


@dataclass(frozen=True)
class WindowOutcome:
    """What one planning window achieved."""

    start: float
    n_requests: int
    schedule: Schedule
    accuracies: np.ndarray
    on_time: int
    energy: float


@dataclass(frozen=True)
class ServingReport:
    """Aggregate over all windows of one run."""

    windows: tuple[WindowOutcome, ...]

    @property
    def n_requests(self) -> int:
        return sum(w.n_requests for w in self.windows)

    @property
    def mean_accuracy(self) -> float:
        if not self.windows:
            return 0.0
        total = sum(float(w.accuracies.sum()) for w in self.windows)
        return total / max(self.n_requests, 1)

    @property
    def on_time_fraction(self) -> float:
        """Fraction of requests that received work and met their SLO."""
        if self.n_requests == 0:
            return 0.0
        return sum(w.on_time for w in self.windows) / self.n_requests

    @property
    def total_energy(self) -> float:
        return sum(w.energy for w in self.windows)


class RollingHorizonPlanner:
    """Plan a request stream window by window with a DSCT-EA scheduler.

    Parameters
    ----------
    cluster:
        The serving machines.
    scheduler:
        Any scheduler from this library (``ApproxScheduler()`` is the
        intended choice).
    window_seconds:
        Length of each planning window.
    power_cap_fraction:
        Energy per window as a fraction of running every machine at full
        power for the window (the window's β).
    """

    def __init__(
        self,
        cluster: Cluster,
        scheduler: Scheduler,
        *,
        window_seconds: float = 2.0,
        power_cap_fraction: float = 0.5,
    ):
        check_positive(window_seconds, "window_seconds")
        if not 0.0 < power_cap_fraction:
            raise ValidationError(f"power_cap_fraction must be > 0, got {power_cap_fraction}")
        self.cluster = cluster
        self.scheduler = scheduler
        self.window_seconds = float(window_seconds)
        self.power_cap_fraction = float(power_cap_fraction)

    @property
    def window_budget(self) -> float:
        """Energy budget (J) granted to each window."""
        return self.power_cap_fraction * self.window_seconds * self.cluster.total_power

    def plan_window(self, start: float, batch: Sequence[Request]) -> WindowOutcome:
        """Solve one window's batch; returns the outcome."""
        if not batch:
            raise ValidationError("cannot plan an empty window")
        tele = get_collector()
        with tele.span("planner.window"):
            _, instance = window_instance(batch, start, self.cluster, self.window_budget)
            with tele.span("planner.window.solve"):
                schedule = self.scheduler.solve(instance)
            on_time = on_time_count(schedule, instance.tasks.deadlines)
        tele.counter("planner_windows_total").inc()
        tele.counter("planner_requests_total").add(len(batch))
        tele.counter("planner_on_time_total").add(on_time)
        tele.counter("planner_accuracy_total").add(float(schedule.task_accuracies.sum()))
        tele.histogram("planner_window_requests", buckets=(1, 2, 5, 10, 20, 50, 100, 200, 500)).observe(
            len(batch)
        )
        tele.histogram(
            "planner_window_energy_joules",
            buckets=(1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6),
        ).observe(schedule.total_energy)
        return WindowOutcome(
            start=start,
            n_requests=len(batch),
            schedule=schedule,
            accuracies=schedule.task_accuracies,
            on_time=on_time,
            energy=schedule.total_energy,
        )

    def run(self, requests: Sequence[Request]) -> ServingReport:
        """Plan an entire stream; empty streams yield an empty report.

        The whole run executes under one trace (the caller's active
        trace id, or a fresh one), so every window's spans correlate.
        """
        outcomes: List[WindowOutcome] = []
        with ensure_trace(), get_collector().span("planner.run"):
            for start, batch in window_batches(list(requests), self.window_seconds):
                outcomes.append(self.plan_window(start, batch))
        return ServingReport(tuple(outcomes))

    def run_durable(
        self,
        requests: Sequence[Request],
        journal_dir,
        *,
        energy_budget: Optional[float] = None,
        snapshot_every: int = 5,
        fsync: str = "always",
        meta: Optional[dict] = None,
    ):
        """Plan the stream crash-safely (journal + snapshots + resume).

        The durable counterpart of :meth:`run`: every window is
        journaled to a write-ahead log under ``journal_dir`` before it
        commits, state is snapshotted every ``snapshot_every`` windows,
        and a journal left behind by a crashed run is recovered,
        certified against ``energy_budget`` and *continued* — committed
        windows replay from the log, the rest are re-solved
        deterministically.  ``energy_budget`` is paced: each window is
        granted an even share of what is left, capped at
        :attr:`window_budget`.  Returns a
        :class:`~repro.durability.run.DurableReport`.
        """
        from ..durability.run import DurableRun

        return DurableRun(
            self.cluster,
            self.scheduler,
            journal_dir,
            window_seconds=self.window_seconds,
            power_cap_fraction=self.power_cap_fraction,
            energy_budget=energy_budget,
            snapshot_every=snapshot_every,
            fsync=fsync,
            meta=meta,
        ).run(requests)
