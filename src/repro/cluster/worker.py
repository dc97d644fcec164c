"""The shard worker: a solver process with its own durable ledger.

Each shard of the cluster is one OS process running
:func:`worker_main`: a loop over a request queue answering three ops —
``window`` (solve a window of requests), ``stats`` (a probe) and
``shutdown``.  Anything else gets an ``error`` reply.  Per shard — *not*
shared with any other process — the worker owns:

* a :class:`~repro.telemetry.MetricsRegistry` collecting its counters
  and solve spans (fetched by the front-end's ``stats`` probe for the
  cluster-level ``/metrics``, ``/trace/<id>`` and ``/debug/profile``
  aggregation);
* an :class:`~repro.resilience.admission.AdmissionController` whose
  circuit breaker trips on repeated solver failures, shedding load at
  the shard before it melts;
* a :class:`~repro.durability.solve_journal.SolveJournal` — the
  shard's write-ahead energy ledger, recovered on restart and audited
  by :func:`repro.cluster.ledger.audit_cluster`.

Each window item runs the solve step the single-process server runs
(:class:`~repro.cluster.solve_service.SolveStep`); the worker adds only
its lease check and the budget clip it applies to the parsed instance.

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
from typing import Any, Dict, Optional, Sequence

from ..chaos import ChaosEvent, FaultInjector, WORKER_SITE
from ..core.instance import ProblemInstance
from ..durability.solve_journal import SolveJournal
from ..resilience.admission import AdmissionController
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
    ):
        self.shard = str(shard)
        self.journal_dir = journal_dir
        self.solver_timeout = solver_timeout
        self.fallback = bool(fallback)
        self.snapshot_every = int(snapshot_every)
        self.fsync = fsync
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
        self.injector: Optional[FaultInjector] = None
        if config.chaos_events:
            self.injector = FaultInjector(config.chaos_events, telemetry=self.telemetry)

    @property
    def energy_spent(self) -> float:
        return self.journal.energy_spent


def _solve_one(state: _ShardState, item: Dict[str, Any], remaining_grant: float, enforce: bool):
    """One request of a window; returns ``(result_doc, energy_spent)``.

    The shard's own lease check comes first; the parsed instance gets
    its budget clipped to the remaining grant before the shared solve
    step runs.
    """
    tele = state.telemetry
    shard = state.config.shard
    trace_id = item.get("trace_id")
    if enforce and remaining_grant <= 0.0:
        tele.counter("worker_shed_total", shard=shard, reason="lease_exhausted").inc()
        return error_doc(503, "lease_exhausted", trace_id, retry_after=1.0), 0.0

    def prepare(instance: ProblemInstance) -> ProblemInstance:
        if enforce and instance.budget > remaining_grant:
            return dataclasses.replace(instance, budget=remaining_grant)
        return instance

    with trace_scope(trace_id) if trace_id else contextlib.nullcontext():
        doc = state.step.run(str(item.get("scheduler", "approx")), item["instance"], trace_id=trace_id, prepare=prepare)
    if doc["status"] != 200:
        tele.counter("worker_errors_total", shard=shard, status=str(doc["status"])).inc()
        return doc, 0.0
    state.solves_total += 1
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


def _handle_window(state: _ShardState, envelope: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    grant = envelope.get("grant")
    enforce = grant is not None
    remaining = float(grant) if enforce else float("inf")
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
        "batch_id": envelope.get("batch_id"),
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
        "batch_id": envelope.get("batch_id"),
        "shard": state.config.shard,
        "energy_spent": state.energy_spent,
        "solves_total": state.solves_total,
        "breaker_state": state.admission.breaker.state,
        "journal_records": state.journal.record_count,
        "telemetry": state.telemetry.snapshot(),
    }


def worker_main(config: WorkerConfig, requests: Any, replies: Any) -> None:
    """Entry point of a shard worker process (also runnable in-process).

    ``requests``/``replies`` are queue-like (``get()``/``put()``); the
    loop exits on a ``shutdown`` envelope, closing the journal cleanly.
    A fork-started child inherits the parent's context, so the worker
    activates its own registry for everything it runs.
    """
    state = _ShardState(config)
    with collector(state.telemetry):
        while True:
            try:
                envelope = requests.get(timeout=1.0)
            except queue.Empty:
                continue
            if not isinstance(envelope, dict):
                envelope = {}  # answered below as an unknown op, batch_id None
            op = envelope.get("op")
            if op == "shutdown":
                state.journal.close()
                replies.put({"op": "shutdown_ack", "shard": config.shard, "batch_id": envelope.get("batch_id")})
                return
            if op == "stats":
                replies.put(_handle_stats(state, envelope))
            elif op == "window":
                reply = _handle_window(state, envelope)
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
