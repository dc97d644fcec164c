"""The shard worker: a solver process with its own durable ledger.

Each shard of the cluster is one OS process running
:func:`worker_main`: a loop over a request queue whose envelopes carry
solve windows, stats probes, and shutdown.  Per shard — *not* shared
with any other process — the worker owns:

* a :class:`~repro.telemetry.MetricsRegistry` collecting its counters
  and solve spans (fetched by the front-end's ``stats`` probe for the
  cluster-level ``/metrics`` aggregation);
* an :class:`~repro.resilience.admission.AdmissionController` whose
  circuit breaker trips on repeated solver failures, shedding load at
  the shard before it melts;
* a :class:`~repro.durability.solve_journal.SolveJournal` — the
  shard's write-ahead energy ledger, recovered on restart and audited
  by :func:`repro.cluster.ledger.audit_cluster`.

Each window item runs the solve step the single-process server runs
(:class:`~repro.cluster.solve_service.SolveStep`); the worker adds only
its lease and cancellation checks and the budget clip plus brownout it
applies to the parsed instance.

Trace identity crosses the process boundary in data, not context: every
request in a window envelope carries its ``trace_id``, the worker
re-opens :func:`~repro.telemetry.trace_scope` around the step, and the
journal record carries the id — so one trace correlates the front-end
span, the worker's solve span and the durable ledger entry.

Energy discipline: the envelope carries the window's ``grant`` (joules
reserved from the shard's lease by the front-end).  The worker solves
each request with its instance budget clipped to the remaining grant,
deducts realised energy, and *sheds* requests (503, ``lease_exhausted``)
once the grant runs dry — it can never spend a joule the ledger did not
reserve.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import queue
import signal
import time
from collections import deque
from typing import Any, Callable, Dict, Optional, Sequence

from ..chaos import ChaosEvent, FaultInjector, WORKER_SITE
from ..core.instance import ProblemInstance
from ..core.task import Task
from ..durability.solve_journal import SolveJournal
from ..overload.brownout import BROWNOUT_LADDER, BrownoutLevel
from ..profile.phases import phase_breakdown
from ..profile.sampler import StackSampler
from ..resilience.admission import AdmissionController
from ..resilience.degrade import cap_work
from ..telemetry import MetricsRegistry, collector, trace_scope
from .solve_service import SolveService, SolveServiceConfig, SolveStep, error_doc

__all__ = ["WorkerConfig", "worker_main"]


class WorkerConfig:
    """Plain-data worker configuration (must survive pickling to the child)."""

    def __init__(
        self,
        shard: str,
        *,
        journal_dir: Optional[str] = None,
        solver_timeout: Optional[float] = None,
        fallback: bool = False,
        snapshot_every: int = 25,
        fsync: str = "always",
        chaos_events: Optional[Sequence[ChaosEvent]] = None,
        profile_hz: float = 19.0,
    ):
        self.shard = str(shard)
        self.journal_dir = journal_dir
        self.solver_timeout = solver_timeout
        self.fallback = bool(fallback)
        self.snapshot_every = int(snapshot_every)
        self.fsync = fsync
        #: continuous-profiler sampling rate; ``0`` disables the sampler
        self.profile_hz = float(profile_hz)
        #: planned worker-site chaos faults (frozen dataclasses pickle across fork)
        self.chaos_events = tuple(chaos_events) if chaos_events else ()

    def service_config(self) -> SolveServiceConfig:
        return SolveServiceConfig(solver_timeout=self.solver_timeout, fallback=self.fallback)


class _ShardState:
    """Everything the worker loop owns; built once inside the child."""

    def __init__(self, config: WorkerConfig):
        self.config = config
        self.telemetry = MetricsRegistry()
        self.journal = SolveJournal(
            config.journal_dir,
            {"kind": "cluster-shard", "shard": config.shard},
            fsync=config.fsync,
            snapshot_every=config.snapshot_every,
            tags={"shard": config.shard},
        )
        # The shard solves a window's requests one at a time, so the
        # admission controller's in-flight bound is never reached here;
        # what it contributes is the circuit breaker.
        self.admission = AdmissionController()
        self.step = SolveStep(
            SolveService(config.service_config()),
            self.admission,
            self.telemetry,
            journal=self.journal,
            site="worker",
            labels={"shard": config.shard},
        )
        self.solves_total = 0
        self.cancelled: set = set()  # trace ids the front-end withdrew (hedge losers)
        self.brownout_level = 0  # cluster-wide level stamped into window envelopes
        self.injector: Optional[FaultInjector] = None
        if config.chaos_events:
            self.injector = FaultInjector(config.chaos_events, telemetry=self.telemetry)
        # The always-on continuous profiler.  Started *here*, inside the
        # child process — a sampler thread must never be running in the
        # parent when a worker forks (its lock could be held mid-fork).
        self.sampler: Optional[StackSampler] = None
        if config.profile_hz > 0.0:
            self.sampler = StackSampler(self.telemetry, hz=config.profile_hz).start()

    @property
    def energy_spent(self) -> float:
        return self.journal.energy_spent


def _brownout_instance(instance: ProblemInstance, level: int) -> ProblemInstance:
    """Apply the cluster-wide brownout level to one instance before solving.

    Level 1 caps each task's work at the rung's fraction of its maximum;
    levels 2+ force every task to its *lowest-θ variant* — the smallest
    positive breakpoint of its accuracy curve, i.e. the cheapest
    compression level the task ships with.  Tasks are never shed here
    (the front-end sheds whole best-effort *requests* at level 3); a
    browned-out window always answers every request, just less
    accurately.
    """
    if level <= 0:
        return instance
    rung = BROWNOUT_LADDER[min(level, len(BROWNOUT_LADDER) - 1)]
    return cap_work(instance, [_rung_cap(rung, task) for task in instance.tasks])


def _rung_cap(rung: BrownoutLevel, task: Task) -> float:
    """A task's work cap on one rung: its lowest positive breakpoint when
    the rung forces the lowest θ, else the rung's share of ``f_max``."""
    if rung.force_lowest:
        positive = task.accuracy.breakpoints[task.accuracy.breakpoints > 0]
        if len(positive):
            return float(positive[0])
    return rung.work_cap_scale * task.f_max


def _solve_one(state: _ShardState, item: Dict[str, Any], remaining_grant: float, enforce: bool):
    """One request of a window; returns ``(result_doc, energy_spent)``.

    The shard's own checks come first (lease left, cancellation); the
    parsed instance gets its budget clipped to the remaining grant and
    the cluster's brownout level before the shared solve step runs.
    """
    tele = state.telemetry
    shard = state.config.shard
    trace_id = item.get("trace_id")
    if enforce and remaining_grant <= 0.0:
        tele.counter("worker_shed_total", shard=shard, reason="lease_exhausted").inc()
        return error_doc(503, "lease_exhausted", trace_id, retry_after=1.0), 0.0

    if trace_id is not None and trace_id in state.cancelled:
        state.cancelled.discard(trace_id)
        tele.counter("worker_cancelled_total", shard=shard).inc()
        return error_doc(499, "cancelled by front-end", trace_id), 0.0

    def prepare(instance: ProblemInstance) -> ProblemInstance:
        if enforce and instance.budget > remaining_grant:
            instance = dataclasses.replace(instance, budget=remaining_grant)
        return _brownout_instance(instance, state.brownout_level)

    with trace_scope(trace_id) if trace_id else contextlib.nullcontext():
        doc = state.step.run(str(item.get("scheduler", "approx")), item["instance"], trace_id=trace_id, prepare=prepare)
    if doc["status"] != 200:
        tele.counter("worker_errors_total", shard=shard, status=str(doc["status"])).inc()
        return doc, 0.0
    state.solves_total += 1
    if state.brownout_level > 0:
        tele.counter("worker_brownout_solves_total", shard=shard, level=str(state.brownout_level)).inc()
    doc["shard"] = shard
    return doc, float(doc["metrics"]["energy_joules"])


def _apply_worker_fault(state: _ShardState, event: ChaosEvent) -> bool:
    """Apply a fired worker-site fault; ``True`` means *drop the reply*.

    The fault is journalled into the shard's own WAL first (``recover``
    tolerates foreign event types), so a post-mortem read of the ledger
    shows the fault next to the solves it perturbed.  Fatal kinds do not
    return.
    """
    if event.kind != "worker_exit":
        state.journal.append({"type": "chaos_event", **event.to_dict()})
    if event.kind == "worker_stall":
        time.sleep(max(event.magnitude, 0.0))
    elif event.kind == "reply_drop":
        return True
    elif event.kind == "worker_kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif event.kind == "worker_exit":
        # A clean-but-silent exit: the journal closes intact, no ack is sent.
        state.journal.append({"type": "chaos_event", **event.to_dict()})
        state.journal.close()
        os._exit(0)
    elif event.kind == "journal_torn_write":
        # Tear the WAL tail mid-record, then die hard: recovery must repair
        # the torn frame and keep every record before it.
        state.journal.tear_tail(
            {
                "type": "solve",
                "shard": state.config.shard,
                "scheduler": "torn",
                "energy": 0.0,
                "cum_energy": state.energy_spent,
            }
        )
        os._exit(1)
    return False


def _handle_window(
    state: _ShardState,
    envelope: Dict[str, Any],
    drain: Optional[Callable[[], None]] = None,
) -> Optional[Dict[str, Any]]:
    grant = envelope.get("grant")
    enforce = grant is not None
    remaining = float(grant) if enforce else float("inf")
    level = int(envelope.get("brownout", 0))
    if level != state.brownout_level:
        # The front-end moved the cluster-wide brownout level; journal the
        # transition into the shard WAL (recover tolerates foreign record
        # types) so a post-mortem read shows *when* accuracy was degraded.
        state.journal.append(
            {"type": "brownout", "shard": state.config.shard, "from": state.brownout_level, "to": level}
        )
        state.brownout_level = level
        state.telemetry.gauge("worker_brownout_level").set(level)
    drop_reply = False
    if state.injector is not None:
        event = state.injector.fire(WORKER_SITE, state.config.shard)
        if event is not None:
            drop_reply = _apply_worker_fault(state, event)
    spent = 0.0
    results = []
    elapsed = []
    with state.telemetry.span("worker.window", shard=state.config.shard):
        for item in envelope.get("requests", []):
            if drain is not None:
                drain()  # pick up cancellations racing this window
            began = time.monotonic()
            doc, energy = _solve_one(state, item, remaining, enforce)
            elapsed.append(time.monotonic() - began)
            results.append(doc)
            remaining -= energy
            spent += energy
    if drop_reply:
        return None
    return {
        "op": "window_done",
        "batch_id": envelope["batch_id"],
        "shard": state.config.shard,
        "epoch": envelope.get("epoch"),
        "results": results,
        "elapsed": elapsed,
        "spent": spent,
        "cum_energy": state.energy_spent,
    }


def _handle_stats(state: _ShardState, envelope: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "op": "stats",
        "batch_id": envelope["batch_id"],
        "shard": state.config.shard,
        "energy_spent": state.energy_spent,
        "solves_total": state.solves_total,
        "breaker_state": state.admission.breaker.state,
        "brownout_level": state.brownout_level,
        "journal_records": state.journal.record_count,
        "telemetry": state.telemetry.snapshot(),
    }


def _handle_profile(state: _ShardState, envelope: Dict[str, Any]) -> Dict[str, Any]:
    """The shard's continuous profile plus exact per-phase span splits."""
    return {
        "op": "profile",
        "batch_id": envelope["batch_id"],
        "shard": state.config.shard,
        "profile": state.sampler.profile() if state.sampler is not None else None,
        "phases": phase_breakdown(state.telemetry.snapshot()),
    }


def worker_main(config: WorkerConfig, requests: Any, replies: Any) -> None:
    """Entry point of a shard worker process (also runnable in-process).

    ``requests``/``replies`` are queue-like (``get()``/``put()``); the
    loop exits on a ``shutdown`` envelope, closing the journal cleanly.
    A fork-started child inherits the parent's context, so the worker
    activates its own registry for everything it runs.

    ``cancel`` envelopes are *control* traffic: they jump the line.  The
    loop drains the queue between window items so a hedge winner's
    cancellation reaches the loser before it burns energy on a solve
    whose result nobody will accept.
    """
    state = _ShardState(config)
    # Bounded: a front-end gone haywire cannot balloon the worker's memory.
    # Overflow drops the *oldest* queued envelope — its window is swept and
    # answered 503 by the front-end's stale-window sweeper.
    backlog: deque = deque(maxlen=4096)

    def _drain_control() -> None:
        while True:
            try:
                pulled = requests.get_nowait()
            except queue.Empty:
                return
            if isinstance(pulled, dict) and pulled.get("op") == "cancel":
                state.cancelled.update(pulled.get("trace_ids", []))
            else:
                backlog.append(pulled)

    with collector(state.telemetry):
        while True:
            if backlog:
                envelope = backlog.popleft()
            else:
                try:
                    envelope = requests.get(timeout=1.0)
                except queue.Empty:
                    continue
            op = envelope.get("op") if isinstance(envelope, dict) else "shutdown"
            if op == "shutdown":
                state.journal.close()
                replies.put({"op": "shutdown_ack", "shard": config.shard, "batch_id": envelope.get("batch_id")})
                return
            if op == "cancel":
                state.cancelled.update(envelope.get("trace_ids", []))
            elif op == "stats":
                replies.put(_handle_stats(state, envelope))
            elif op == "profile":
                replies.put(_handle_profile(state, envelope))
            elif op == "window":
                reply = _handle_window(state, envelope, _drain_control)
                if reply is not None:
                    replies.put(reply)
            else:
                replies.put(
                    {
                        "op": "error",
                        "batch_id": envelope.get("batch_id"),
                        "shard": config.shard,
                        "error": f"unknown op {op!r}",
                    }
                )
