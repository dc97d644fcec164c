"""Online discrete-event simulation of a served request stream.

Where :class:`~repro.simulator.cluster_sim.ClusterSimulator` replays a
precomputed plan, :class:`OnlineSimulation` runs the *serving loop*
itself inside the event engine:

* request arrivals are events (from any arrival process);
* at every planning-window boundary the buffered requests are planned
  as one instance (:func:`~repro.online.planner.window_instance`, with
  deadlines measured from that tick) by any scheduler under the
  window's energy budget;
* the planned shares are dispatched to machine queues and executed
  non-preemptively; completions are measured against each request's
  *absolute* SLO deadline (arrival + SLO), not the planner's relative
  view — so the simulation catches planning-boundary effects the
  algebraic evaluation cannot (a request arriving just before the
  boundary loses part of its SLO to waiting).

Failures are first-class events (``failures=FailureModel(...)``): an
:class:`~repro.simulator.failures.Outage` stops a machine mid-stream —
the share in flight is truncated with partial accuracy credit and queued
shares are lost — and a :class:`~repro.simulator.failures.Slowdown`
stretches every share planned on the machine from its onset.  With
``replan=True`` the loop is *failure-aware*: requests whose shares an
outage destroyed are re-buffered into the next planning window, and
planning only targets surviving machines at their effective speeds (the
stale-plan baseline, ``replan=False``, keeps planning onto dead machines
and loses that work).  Every window is granted the same
power-cap budget; a global budget across windows, paced over them,
with journal and resume, is :class:`~repro.durability.run.DurableRun`'s.

This is the library's end-to-end substrate for the MLaaS serving story
the paper motivates in its introduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..algorithms.base import Scheduler
from ..core.machine import Cluster, Machine
from ..online.planner import window_instance
from ..telemetry import ensure_trace, get_collector
from ..utils.errors import ReproError, SimulationError
from ..utils.validation import check_positive, require
from ..workloads.arrivals import Request
from .engine import EventQueue
from .failures import FailureModel, Outage

__all__ = ["ServedRequest", "OnlineSimReport", "OnlineSimulation"]


@dataclass
class ServedRequest:
    """Lifecycle record of one request through the online system."""

    request: Request
    planned_window: Optional[float] = None
    machine: Optional[int] = None
    start: Optional[float] = None
    finish: Optional[float] = None
    flops: float = 0.0
    accuracy: float = 0.0
    disrupted: bool = False  #: a failure destroyed (part of) its share
    replans: int = 0  #: times the request was re-buffered after a failure

    @property
    def served(self) -> bool:
        return self.flops > 0.0

    @property
    def met_slo(self) -> bool:
        """Served and finished by the absolute SLO deadline."""
        return self.served and self.finish is not None and self.finish <= self.request.deadline + 1e-9


@dataclass
class _Dispatch:
    """One planned share in flight or queued on a machine."""

    rec: ServedRequest
    index: int  #: index into the records list
    start: float
    end: float
    flops: float
    accuracy_value: object  #: callable FLOP -> accuracy for partial credit
    cancelled: bool = False


@dataclass(frozen=True)
class OnlineSimReport:
    """Measured outcome of one online run."""

    records: tuple
    machine_busy: np.ndarray
    energy: float
    horizon: float

    @property
    def n_requests(self) -> int:
        return len(self.records)

    @property
    def mean_accuracy(self) -> float:
        if not self.records:
            return 0.0
        return float(np.mean([r.accuracy for r in self.records]))

    @property
    def slo_attainment(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.met_slo for r in self.records) / len(self.records)

    @property
    def served_fraction(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.served for r in self.records) / len(self.records)

    @property
    def disrupted_count(self) -> int:
        return sum(r.disrupted for r in self.records)


class OnlineSimulation:
    """Event-driven serving loop: buffer → plan per window → execute.

    Planned shares start no earlier than their window boundary; machines
    execute shares back-to-back in planned order.  Because planning is
    window-synchronous, a machine may still be draining the previous
    window's work when new shares arrive — the simulation (unlike the
    algebraic planner view) charges that queueing delay against the SLO,
    which is exactly the effect worth measuring.

    Parameters
    ----------
    failures:
        Injected outages/slowdowns, on the stream's absolute clock.
    replan:
        Failure-aware mode: re-buffer disrupted requests into the next
        window and plan only on surviving machines at effective speeds.
        Off by default — the stale-plan baseline.
    """

    def __init__(
        self,
        cluster: Cluster,
        scheduler: Scheduler,
        *,
        window_seconds: float = 2.0,
        power_cap_fraction: float = 0.5,
        failures: Optional[FailureModel] = None,
        replan: bool = False,
    ):
        check_positive(window_seconds, "window_seconds")
        require(power_cap_fraction > 0, "power_cap_fraction must be > 0")
        self.cluster = cluster
        self.scheduler = scheduler
        self.window_seconds = float(window_seconds)
        self.power_cap_fraction = float(power_cap_fraction)
        self.failures = failures if failures is not None else FailureModel()
        self.replan = bool(replan)
        for o in self.failures.outages:
            require(0 <= o.machine < len(cluster), f"outage references machine {o.machine}")
        for s in self.failures.slowdowns:
            require(0 <= s.machine < len(cluster), f"slowdown references machine {s.machine}")

    @property
    def window_budget(self) -> float:
        return self.power_cap_fraction * self.window_seconds * self.cluster.total_power

    def run(self, requests: Sequence[Request]) -> OnlineSimReport:
        """Simulate the full stream; returns measured per-request records.

        Runs under one trace (the caller's active trace id or a fresh
        one), so every window's spans correlate.
        """
        with ensure_trace(), get_collector().span("online_sim.run"):
            report = self._run(requests)
        tele = get_collector()
        tele.counter("online_sim_requests_total").add(report.n_requests)
        tele.counter("online_sim_slo_met_total").add(sum(r.met_slo for r in report.records))
        tele.counter("online_sim_accuracy_total").add(
            float(sum(r.accuracy for r in report.records))
        )
        return report

    def _run(self, requests: Sequence[Request]) -> OnlineSimReport:
        records = [ServedRequest(request=r) for r in sorted(requests, key=lambda r: r.arrival_time)]
        m = len(self.cluster)
        if not records:
            return OnlineSimReport((), np.zeros(m), 0.0, 0.0)

        queue = EventQueue()
        buffered: List[int] = []  # indices into records awaiting planning
        machine_free_at = np.zeros(m)
        busy = np.zeros(m)
        alive = np.ones(m, dtype=bool)
        factor = np.ones(m)  # slowdown speed multipliers
        pending: List[List[_Dispatch]] = [[] for _ in range(m)]
        tele = get_collector()

        def arrive(idx: int) -> None:
            buffered.append(idx)

        def on_outage(r: int) -> None:
            if not alive[r]:
                return
            alive[r] = False
            now = queue.now
            tele.counter("online_sim_outages_total").inc()
            for d in pending[r]:
                if d.cancelled or (d.rec.finish is not None and d.end <= now):
                    continue
                d.cancelled = True
                d.rec.disrupted = True
                if d.start >= now:  # queued, never started: total loss
                    busy[r] -= d.end - d.start
                    d.rec.flops = 0.0
                    d.rec.accuracy = 0.0
                    d.rec.machine = None
                    d.rec.start = None
                    if self.replan:
                        d.rec.replans += 1
                        buffered.append(d.index)
                        tele.counter("online_sim_replanned_requests_total").inc()
                    else:
                        tele.counter("online_sim_lost_requests_total").inc()
                else:  # in flight: truncate with partial credit
                    done = (now - d.start) / (d.end - d.start)
                    busy[r] -= d.end - now
                    d.rec.flops = d.flops * done
                    d.rec.accuracy = float(d.accuracy_value(d.rec.flops))
                    d.rec.finish = now
            pending[r].clear()
            machine_free_at[r] = now

        def on_slowdown(r: int, f: float) -> None:
            # Applies at planning granularity: shares already dispatched
            # keep their nominal duration; every later window plans the
            # machine at its reduced effective speed.
            factor[r] = f

        def plan_window() -> None:
            nonlocal buffered
            window_start = queue.now
            if buffered:
                batch = list(buffered)
                buffered = []
                self._plan_and_dispatch(
                    batch, records, window_start, machine_free_at, busy, queue,
                    alive=alive, factor=factor, pending=pending,
                )
            # Next window tick while there can still be arrivals or work.
            if queue.now < horizon:
                queue.schedule_in(self.window_seconds, plan_window)

        horizon = max(r.request.arrival_time for r in records) + self.window_seconds
        for idx, rec in enumerate(records):
            queue.schedule_at(rec.request.arrival_time, lambda idx=idx: arrive(idx))
        for event in self.failures.events():
            if isinstance(event, Outage):
                queue.schedule_at(event.at, lambda r=event.machine: on_outage(r))
            else:
                queue.schedule_at(event.at, lambda r=event.machine, f=event.factor: on_slowdown(r, f))
        queue.schedule_at(self.window_seconds, plan_window)
        queue.run()
        # A final planning pass for anything still buffered at the end.
        if buffered:
            self._plan_and_dispatch(
                list(buffered), records, queue.now, machine_free_at, busy, queue,
                alive=alive, factor=factor, pending=pending,
            )
            queue.run()

        return OnlineSimReport(tuple(records), busy, float(busy @ self.cluster.powers), queue.now)

    # -- internals -------------------------------------------------------------

    def _planning_view(self, alive: np.ndarray, factor: np.ndarray):
        """The cluster the planner sees, plus sub-index → machine map.

        Failure-aware mode restricts to survivors at effective (slowed)
        speeds; scaling efficiency alongside keeps power draw constant.
        The stale baseline always sees the nominal full cluster.
        """
        if not self.replan:
            return self.cluster, list(range(len(self.cluster)))
        index_map = [r for r in range(len(self.cluster)) if alive[r]]
        if not index_map:
            return None, []
        machines = []
        for r in index_map:
            base = self.cluster[r]
            f = float(factor[r])
            machines.append(Machine(speed=base.speed * f, efficiency=base.efficiency * f, name=base.name))
        return Cluster(machines), index_map

    def _plan_and_dispatch(
        self,
        batch: List[int],
        records: List[ServedRequest],
        window_start: float,
        machine_free_at: np.ndarray,
        busy: np.ndarray,
        queue: EventQueue,
        *,
        alive: np.ndarray,
        factor: np.ndarray,
        pending: List[List[_Dispatch]],
    ) -> None:
        """Solve the batched instance and enqueue execution of the shares."""
        tele = get_collector()
        cluster, index_map = self._planning_view(alive, factor)
        reqs = [records[i].request for i in batch]
        if cluster is None:
            # Every machine is down; the window is unservable.
            for i in batch:
                records[i].planned_window = window_start
            tele.counter("online_sim_unservable_windows_total").inc()
            return
        # Planned at the tick that closes the window: a request that has
        # already burnt part of its SLO waiting gets only the remainder.
        order, instance = window_instance(reqs, window_start, cluster, self.window_budget)
        try:
            with tele.span("online_sim.window.plan"):
                schedule = self.scheduler.solve(instance)
        except ReproError:
            # A failed window solve serves nothing but must not kill the
            # stream — the affected requests are simply not served.
            tele.counter("online_sim_failed_windows_total").inc()
            for i in batch:
                records[i].planned_window = window_start
            return
        tele.counter("online_sim_windows_total").inc()
        times = schedule.times
        flops = schedule.task_flops
        accs = schedule.task_accuracies
        for i in range(len(batch)):
            rec = records[batch[order[i]]]
            rec.planned_window = window_start
            rec.accuracy = float(accs[i])
            rec.flops = float(flops[i])
            if rec.flops <= 0.0:
                continue
            shares = np.nonzero(times[i] > 0.0)[0]
            if shares.size != 1:
                # Integral schedulers give one machine; fractional inputs
                # are rejected up front to keep execution semantics clear.
                raise SimulationError(
                    "OnlineSimulation requires an integral scheduler "
                    f"(task got {shares.size} machine shares)"
                )
            rr = int(shares[0])
            r = index_map[rr]
            if not alive[r]:
                # Stale-plan baseline: the planner does not know the
                # machine is dead, so its share is simply lost.
                rec.flops = 0.0
                rec.accuracy = 0.0
                rec.disrupted = True
                tele.counter("online_sim_lost_requests_total").inc()
                continue
            duration = float(times[i, rr])
            if not self.replan:
                # The stale planner quoted wall time at nominal speed; a
                # slowed machine physically takes 1/factor longer (same
                # FLOPs delivered, later finish).  The failure-aware view
                # already plans on effective speeds, so no correction.
                duration /= float(factor[r])
            start = max(window_start, float(machine_free_at[r]))
            machine_free_at[r] = start + duration
            busy[r] += duration
            rec.machine = r
            rec.start = start
            dispatch = _Dispatch(
                rec=rec,
                index=batch[order[i]],
                start=start,
                end=start + duration,
                flops=rec.flops,
                accuracy_value=instance.tasks[i].accuracy.value,
            )
            pending[r].append(dispatch)
            tele.counter("online_sim_dispatched_total").inc()
            tele.histogram("online_sim_queue_delay_seconds").observe(start - window_start)

            def finish(d=dispatch) -> None:
                if not d.cancelled:
                    d.rec.finish = d.end

            queue.schedule_at(start + duration, finish)
