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
and loses that work).  A global ``energy_budget`` plus a
:class:`~repro.resilience.degrade.DegradationPolicy` additionally
degrade windows gracefully under energy pressure instead of overrunning
the budget.

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
from ..telemetry import current_trace_id, ensure_trace, get_collector
from ..utils.errors import ReproError, SimulationError
from ..utils.validation import check_nonnegative, check_positive, require
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
    energy_budget:
        Optional global energy cap (J).  Window budgets are clipped to
        what remains of it, and it anchors the degradation policy's
        spent-fraction watermarks.
    degradation:
        Optional :class:`~repro.resilience.degrade.DegradationPolicy`
        applied to each window's instance (requires ``energy_budget``).
    journal:
        Optional :class:`~repro.durability.journal.JournalWriter`: the
        run appends arrivals, window plans, realised shares, failures,
        degradation changes and the cumulative energy ledger, so a
        crashed serving process can account for spent joules on restart
        (:func:`repro.durability.recover`).  The journaled ledger is
        *planned* spend — a conservative upper bound; outage refunds
        only ever lower realised energy below it.
    initial_energy_spent:
        Energy (J) already charged against ``energy_budget`` by a
        previous incarnation of this run — feed it
        ``recover(journal_dir).energy_spent`` and the budget clipping
        and degradation watermarks resume where the crash left them
        instead of silently granting the budget twice.
    slo:
        Optional :class:`~repro.observe.slo.BurnRateMonitor`: after
        every planning window the cumulative energy ledger is fed to it
        (``observe(window_start, cum_energy)``); alerts it fires bump
        ``slo_alerts_total{severity=...}`` and are journaled as
        ``slo_alert`` events.
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
        energy_budget: Optional[float] = None,
        degradation=None,
        journal=None,
        initial_energy_spent: float = 0.0,
        slo=None,
    ):
        check_positive(window_seconds, "window_seconds")
        require(power_cap_fraction > 0, "power_cap_fraction must be > 0")
        check_nonnegative(initial_energy_spent, "initial_energy_spent")
        if energy_budget is not None:
            check_positive(energy_budget, "energy_budget")
        if degradation is not None and energy_budget is None:
            raise SimulationError("a degradation policy needs energy_budget to measure pressure against")
        self.cluster = cluster
        self.scheduler = scheduler
        self.window_seconds = float(window_seconds)
        self.power_cap_fraction = float(power_cap_fraction)
        self.failures = failures if failures is not None else FailureModel()
        self.replan = bool(replan)
        self.energy_budget = energy_budget
        self.degradation = degradation
        self.journal = journal
        self.initial_energy_spent = float(initial_energy_spent)
        self.slo = slo
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
        one); journaled events carry it, so a journal correlates with
        the run's spans post hoc.
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
        powers = self.cluster.powers
        tele = get_collector()
        # Energy ledger mirrored into the journal: cum starts at whatever a
        # crashed predecessor already spent, and only ever grows (outage
        # refunds lower realised energy *below* the ledger, never above).
        ledger = {"cum": self.initial_energy_spent, "window": 0, "level": -1}
        self._journal(
            {
                "type": "run_start",
                "meta": {
                    "kind": "online_sim",
                    "n_requests": len(records),
                    "window_seconds": self.window_seconds,
                    "power_cap_fraction": self.power_cap_fraction,
                    "energy_budget": self.energy_budget,
                    "initial_energy_spent": self.initial_energy_spent,
                    "replan": self.replan,
                },
            }
        )

        def arrive(idx: int) -> None:
            buffered.append(idx)
            self._journal({"type": "arrival", "id": idx, "t": queue.now})

        def on_outage(r: int) -> None:
            if not alive[r]:
                return
            alive[r] = False
            now = queue.now
            tele.counter("online_sim_outages_total").inc()
            self._journal({"type": "failure", "kind": "outage", "machine": r, "t": now})
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
            self._journal(
                {"type": "failure", "kind": "slowdown", "machine": r, "factor": f, "t": queue.now}
            )

        def plan_window() -> None:
            nonlocal buffered
            window_start = queue.now
            if buffered:
                batch = list(buffered)
                buffered = []
                self._plan_and_dispatch(
                    batch, records, window_start, machine_free_at, busy, queue,
                    alive=alive, factor=factor, pending=pending, powers=powers,
                    ledger=ledger,
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
                alive=alive, factor=factor, pending=pending, powers=powers,
                ledger=ledger,
            )
            queue.run()

        energy = float(busy @ powers)
        self._journal(
            {
                "type": "run_end",
                "energy_realized": energy,
                "cum_energy": ledger["cum"],
                "horizon": queue.now,
            }
        )
        return OnlineSimReport(tuple(records), busy, energy, queue.now)

    # -- internals -------------------------------------------------------------

    def _journal(self, event: dict) -> None:
        if self.journal is not None:
            trace_id = current_trace_id()
            if trace_id is not None and "trace_id" not in event:
                event = {**event, "trace_id": trace_id}
            self.journal.append(event)

    def _observe_slo(self, t: float, cum_energy: float) -> None:
        """Feed the burn-rate monitor one ledger sample; record alerts."""
        if self.slo is None:
            return
        tele = get_collector()
        for alert in self.slo.observe(t, cum_energy):
            tele.counter("slo_alerts_total", severity=alert.severity).inc()
            self._journal(
                {
                    "type": "slo_alert",
                    "severity": alert.severity,
                    "t": alert.at,
                    "burn_rate": alert.burn_rate,
                    "window": alert.window,
                    "threshold": alert.threshold,
                }
            )

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

    def _window_budget_now(self, busy: np.ndarray, powers: np.ndarray) -> float:
        """This window's energy grant, clipped to the global remainder.

        The remainder charges both this incarnation's committed busy time
        and any journaled spend inherited from a crashed predecessor.
        """
        budget = self.window_budget
        if self.energy_budget is not None:
            committed = self.initial_energy_spent + float(busy @ powers)
            budget = min(budget, max(self.energy_budget - committed, 0.0))
        return budget

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
        powers: np.ndarray,
        ledger: Optional[dict] = None,
    ) -> None:
        """Solve the batched instance and enqueue execution of the shares."""
        tele = get_collector()
        ledger = ledger if ledger is not None else {"cum": self.initial_energy_spent, "window": 0, "level": -1}
        window_index = ledger["window"]
        ledger["window"] += 1

        def commit_empty(note: str) -> None:
            """Journal a window that served nothing (ledger unchanged)."""
            self._journal(
                {
                    "type": "window_done",
                    "window": window_index,
                    "start": window_start,
                    "ids": list(batch),
                    "deadlines": [],
                    "flops": [],
                    "caps": [],
                    "energy": 0.0,
                    "cum_energy": ledger["cum"],
                    "level": ledger["level"],
                    "note": note,
                }
            )
            self._observe_slo(window_start, ledger["cum"])

        cluster, index_map = self._planning_view(alive, factor)
        reqs = [records[i].request for i in batch]
        if cluster is None:
            # Every machine is down; the window is unservable.
            for i in batch:
                records[i].planned_window = window_start
            tele.counter("online_sim_unservable_windows_total").inc()
            commit_empty("unservable")
            return
        # Planned at the tick that closes the window: a request that has
        # already burnt part of its SLO waiting gets only the remainder.
        order, instance = window_instance(reqs, window_start, cluster, self._window_budget_now(busy, powers))
        tasks = instance.tasks
        self._journal(
            {
                "type": "window_plan",
                "window": window_index,
                "start": window_start,
                "ids": [batch[i] for i in order],
                "budget": instance.budget,
            }
        )

        kept = np.arange(len(batch))
        if self.degradation is not None:
            spent = self.initial_energy_spent + float(busy @ powers)
            decision = self.degradation.apply(instance, spent / self.energy_budget)
            if decision.degraded:
                tele.counter("online_sim_degraded_windows_total").inc()
            if decision.level != ledger["level"]:
                self._journal({"type": "degrade", "level": decision.level, "window": window_index})
                ledger["level"] = decision.level
            instance, kept = decision.instance, decision.kept

        try:
            with tele.span("online_sim.window.plan"):
                schedule = self.scheduler.solve(instance)
        except ReproError:
            # A failed window solve serves nothing but must not kill the
            # stream — the affected requests are simply not served.
            tele.counter("online_sim_failed_windows_total").inc()
            for i in batch:
                records[i].planned_window = window_start
            commit_empty("solve_failed")
            return
        tele.counter("online_sim_windows_total").inc()
        times = schedule.times
        flops = schedule.task_flops
        accs = schedule.task_accuracies
        speeds = instance.cluster.speeds

        window_energy = 0.0
        window_flops = [0.0] * len(batch)
        planned = {int(k): slot for slot, k in enumerate(kept)}
        for i in range(len(batch)):
            rec = records[batch[order[i]]]
            rec.planned_window = window_start
            slot = planned.get(i)
            if slot is None:  # shed by the degradation policy
                rec.flops = 0.0
                rec.accuracy = 0.0
                continue
            rec.accuracy = float(accs[slot])
            rec.flops = float(flops[slot])
            if rec.flops <= 0.0:
                continue
            shares = np.nonzero(times[slot] > 0.0)[0]
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
            duration = float(times[slot, rr])
            if not self.replan:
                # The stale planner quoted wall time at nominal speed; a
                # slowed machine physically takes 1/factor longer (same
                # FLOPs delivered, later finish).  The failure-aware view
                # already plans on effective speeds, so no correction.
                duration /= float(factor[r])
            start = max(window_start, float(machine_free_at[r]))
            machine_free_at[r] = start + duration
            busy[r] += duration
            window_energy += duration * float(powers[r])
            window_flops[i] = rec.flops
            rec.machine = r
            rec.start = start
            dispatch = _Dispatch(
                rec=rec,
                index=batch[order[i]],
                start=start,
                end=start + duration,
                flops=rec.flops,
                accuracy_value=instance.tasks[slot].accuracy.value,
            )
            pending[r].append(dispatch)
            tele.counter("online_sim_dispatched_total").inc()
            tele.histogram("online_sim_queue_delay_seconds").observe(start - window_start)

            def finish(d=dispatch) -> None:
                if not d.cancelled:
                    d.rec.finish = d.end

            queue.schedule_at(start + duration, finish)

        ledger["cum"] += window_energy
        self._observe_slo(window_start, ledger["cum"])
        if self.journal is not None:
            caps: List[float] = []
            if self.degradation is not None and decision.degraded:
                caps = [decision.work_cap_scale * float(f) for f in tasks.f_max]
            self._journal(
                {
                    "type": "window_done",
                    "window": window_index,
                    "start": window_start,
                    "ids": [batch[i] for i in order],
                    "deadlines": tasks.deadlines.tolist(),
                    "flops": window_flops,
                    "caps": caps,
                    "energy": window_energy,
                    "cum_energy": ledger["cum"],
                    "level": ledger["level"],
                }
            )
