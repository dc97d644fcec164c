"""The cluster front-end: route, batch, lease, dispatch, aggregate.

:class:`ClusterManager` is the control plane of a sharded solving
cluster.  It owns

* a pool of shard **worker processes** (:mod:`repro.cluster.worker`),
  each with its own journal, telemetry registry and circuit breaker;
* a :class:`~repro.cluster.router.ConsistentHashRouter` mapping each
  request's trace id to a shard (walking past dead shards);
* one :class:`~repro.cluster.batcher.WindowBatcher` per shard coalescing
  requests into bounded solve windows;
* the :class:`~repro.cluster.ledger.EnergyLeaseLedger` splitting the
  global budget ``B`` into per-shard leases;
* per-shard dispatcher threads that settle completed windows — resolving
  each request's :class:`~repro.cluster.batcher.PendingResult` and
  committing realised energy back to the ledger;
* one control thread doing all deferred work (:meth:`ClusterManager._control_loop`):
  every heartbeat it declares dead workers (their grants committed in
  full, their requests retried, the ring routes around the corpse),
  restarts them when supervised, and sweeps windows whose reply never
  came; it fires each retry when its backoff is due, and every
  ``rebalance_seconds`` moves unspent lease headroom to the shards that
  are burning it.

:func:`make_cluster_server` serves a manager through the HTTP handler
:mod:`repro.server` uses too
(:class:`~repro.cluster.solve_service.SolveHandler`) — clients cannot
tell one process from a cluster — and :func:`serve_cluster` is the CLI
entry point.
"""

from __future__ import annotations

import contextlib
import contextvars
import heapq
import itertools
import math
import multiprocessing
import queue
import random
import threading
import time
from http.server import ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from .. import __version__ as _pkg_version
from ..chaos import REBALANCE_SITE, RELEASE_SITE, SUBMIT_SITE, FaultInjector
from ..observe.tracing import to_trace_events, trace_spans
from ..overload.controller import AdmitRateController, normalize_priority
from ..overload.signals import QueueDelaySignal
from ..profile.phases import hottest_phases, merge_phase_breakdowns, phase_breakdown
from ..telemetry import MetricsRegistry, collector, new_trace_id, prometheus_text, trace_scope
from ..utils.errors import ValidationError
from ..utils.validation import check_positive, require
from .batcher import PendingResult, QueueFullError, WindowBatcher
from .ledger import EnergyLeaseLedger
from .router import ConsistentHashRouter
from .solve_service import SolveHandler, error_doc
from .worker import WorkerConfig, worker_main

__all__ = ["ClusterConfig", "ClusterManager", "make_cluster_server", "serve_cluster"]

#: Buckets shared by the per-request front-end delay histograms (seconds).
_DELAY_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: Re-dispatches an orphaned request gets before it answers 503.
_MAX_RETRIES = 2


class ClusterConfig:
    """Knobs of a cluster: topology, batching, budget and resilience.

    Batching is work-conserving: a request reaches an idle shard at once.
    ``max_batch`` bounds a window, and ``max_wait_seconds`` caps how long
    a request waits for one while its shard still has a window in flight.
    ``max_queue_per_shard`` bounds the requests queued at a shard's
    batcher; one more answers ``503 queue_full``.
    """

    def __init__(
        self,
        *,
        shards: int = 2,
        budget: Optional[float] = None,
        journal_root: Optional[str] = None,
        max_batch: int = 8,
        max_wait_seconds: float = 0.01,
        solver_timeout: Optional[float] = None,
        fallback: bool = False,
        request_timeout_seconds: float = 30.0,
        rebalance_seconds: float = 2.0,
        fsync: str = "rotate",
        snapshot_every: int = 25,
        supervise: bool = True,
        heartbeat_seconds: float = 0.25,
        max_restarts: int = 3,
        retry_backoff_seconds: float = 0.05,
        queue_target_seconds: Optional[float] = None,
        max_queue_per_shard: int = 1024,
        adaptive_lifo: bool = False,
    ):
        require(shards >= 1, f"cluster needs at least one shard, got {shards}")
        check_positive(request_timeout_seconds, "request_timeout_seconds")
        check_positive(rebalance_seconds, "rebalance_seconds")
        check_positive(heartbeat_seconds, "heartbeat_seconds")
        require(max_restarts >= 0, f"max_restarts must be >= 0, got {max_restarts}")
        check_positive(retry_backoff_seconds, "retry_backoff_seconds")
        if queue_target_seconds is not None:
            check_positive(queue_target_seconds, "queue_target_seconds")
        require(max_queue_per_shard >= 1, f"max_queue_per_shard must be >= 1, got {max_queue_per_shard}")
        self.shards = int(shards)
        self.budget = budget
        self.journal_root = journal_root
        self.max_batch = int(max_batch)
        self.max_wait_seconds = float(max_wait_seconds)
        self.solver_timeout = solver_timeout
        self.fallback = bool(fallback)
        self.request_timeout_seconds = float(request_timeout_seconds)
        self.rebalance_seconds = float(rebalance_seconds)
        self.fsync = fsync
        self.snapshot_every = int(snapshot_every)
        self.supervise = bool(supervise)
        self.heartbeat_seconds = float(heartbeat_seconds)
        self.max_restarts = int(max_restarts)
        self.retry_backoff_seconds = float(retry_backoff_seconds)
        #: adaptive-admission target queue delay; ``None`` disables AIMD
        self.queue_target_seconds = queue_target_seconds
        self.max_queue_per_shard = int(max_queue_per_shard)
        self.adaptive_lifo = bool(adaptive_lifo)

    def shard_ids(self) -> List[str]:
        return [f"shard-{i:02d}" for i in range(self.shards)]


class _ShardHandle:
    """One shard as the front-end sees it: process, queues, batcher."""

    def __init__(self, shard: str):
        self.shard = shard
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.requests: Any = None
        self.replies: Any = None
        self.batcher: Optional[WindowBatcher] = None
        self.dispatcher: Optional[threading.Thread] = None
        self.alive = False
        self.lock = threading.Lock()
        #: windows sent but not yet settled:
        #: batch_id -> (kind, payload, grant, epoch, sent_at)
        self.inflight: Dict[int, Tuple[str, Any, float, int, float]] = {}
        self.epoch = 0  #: lease epoch of the current worker generation
        self.restarts = 0  #: generations spawned beyond the first


class _ShardOverload:
    """One shard's closed-loop admission state at the front-end.

    The measured queue-delay signal feeds two consumers: the AIMD
    admit-rate controller (created only when the cluster has a
    ``queue_target_seconds``) and the deadline check
    (:meth:`QueueDelaySignal.doomed`).
    """

    def __init__(self, config: ClusterConfig):
        # The signal's recency horizon tracks the control cadence: a few
        # rebalance ticks of history, so the signal decays as fast as the
        # controllers can react — a storm's service times must not hold
        # the deadline check's floor long after the queue has drained.
        self.signal = QueueDelaySignal(
            max_age_seconds=max(4.0 * config.rebalance_seconds, 1.0)
        )
        self.controller: Optional[AdmitRateController] = None
        if config.queue_target_seconds is not None:
            self.controller = AdmitRateController(target_delay_seconds=config.queue_target_seconds)


def _mp_context() -> multiprocessing.context.BaseContext:
    """Fork when the platform has it (workers start before traffic, so the
    fork is taken from a quiescent parent); spawn elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover — non-POSIX platforms
        return multiprocessing.get_context("spawn")


class ClusterManager:
    """Start, drive and stop a sharded solving cluster (thread-safe).

    It is also the backend of the cluster's HTTP front-end (see
    :class:`~repro.cluster.solve_service.SolveHandler`): ``submit``,
    ``health``, ``metrics_text``, ``trace_document`` and ``routes``.
    """

    #: Prefix of the HTTP handler's counters (``frontend_requests_total``, ...).
    metric_prefix = "frontend"

    def __init__(
        self,
        config: ClusterConfig,
        *,
        telemetry: Optional[MetricsRegistry] = None,
        injector: Optional[FaultInjector] = None,
    ):
        self.config = config
        self.telemetry = telemetry if telemetry is not None else MetricsRegistry()
        self.injector = injector
        ids = config.shard_ids()
        self.router = ConsistentHashRouter(ids)
        self.ledger = EnergyLeaseLedger(config.budget, ids)
        self._handles: Dict[str, _ShardHandle] = {s: _ShardHandle(s) for s in ids}
        self._batch_ids = itertools.count(1)
        self._started = False
        self._stopping = threading.Event()
        self._control: Optional[threading.Thread] = None
        #: retries the control loop fires when due: (due, seq, item, pending, reason)
        self._retries: List[Tuple[float, int, Dict[str, Any], PendingResult, str]] = []
        self._retry_lock = threading.Lock()
        self._retry_seq = itertools.count()
        self._retry_rng = random.Random()  # jitter only; never part of chaos determinism
        self._overload: Dict[str, _ShardOverload] = {
            s: _ShardOverload(config) for s in ids
        }

    # -- lifecycle -------------------------------------------------------------

    def _spawn_shard(self, handle: _ShardHandle, *, with_chaos: bool) -> None:
        """Bring up one worker generation: queues, process, dispatcher, batcher.

        Only the *first* generation carries planned chaos faults — a
        restarted worker runs fault-free so campaigns terminate instead
        of killing every replacement on the same trigger.
        """
        ctx = _mp_context()
        shard = handle.shard
        cfg = self.config
        chaos_events = self.injector.worker_events(shard) if with_chaos and self.injector is not None else ()
        worker_config = WorkerConfig(
            shard,
            journal_dir=None if cfg.journal_root is None else f"{cfg.journal_root}/{shard}",
            solver_timeout=cfg.solver_timeout,
            fallback=cfg.fallback,
            snapshot_every=self.config.snapshot_every,
            fsync=self.config.fsync,
            chaos_events=chaos_events,
        )
        handle.requests = ctx.Queue()
        handle.replies = ctx.Queue()
        handle.process = ctx.Process(
            target=worker_main,
            args=(worker_config, handle.requests, handle.replies),
            name=f"repro-{shard}",
            daemon=True,
        )
        handle.process.start()
        handle.epoch = self.ledger.epoch_of(shard)
        handle.batcher = WindowBatcher(
            lambda batch, h=handle: self._send_window(h, batch),
            max_batch=self.config.max_batch,
            max_wait_seconds=self.config.max_wait_seconds,
            name=f"window_{shard.replace('-', '_')}",
            max_queue=self.config.max_queue_per_shard,
            lifo_threshold=(4 * self.config.max_batch) if self.config.adaptive_lifo else None,
        )
        # ``alive`` gates routing, so it must flip last: on a restart the
        # handle still carries the dead generation's *closed* batcher
        # until the line above, and a request routed in that window would
        # be shed 503 by a shard that is in fact coming up.
        handle.alive = True
        # The dispatcher pumps replies while its generation is alive, so
        # it starts after the flip.  One context copy per thread: a
        # Context object cannot be entered by two threads at once.
        dispatch_context = contextvars.copy_context()
        handle.dispatcher = threading.Thread(
            target=lambda c=dispatch_context, h=handle: c.run(self._dispatch_loop, h),
            name=f"repro-dispatch-{shard}",
            daemon=True,
        )
        handle.dispatcher.start()

    def start(self) -> "ClusterManager":
        require(not self._started, "cluster already started")
        self._started = True
        for handle in self._handles.values():
            self._spawn_shard(handle, with_chaos=True)
        self._start_control()
        return self

    def _start_control(self) -> None:
        context = contextvars.copy_context()
        self._control = threading.Thread(
            target=lambda: context.run(self._control_loop), name="repro-control", daemon=True
        )
        self._control.start()

    def _stop_control(self) -> None:
        self._stopping.set()
        if self._control is not None:
            self._control.join(timeout=2.0)

    @staticmethod
    def _close_queue(q: Any) -> None:
        """Close one mp queue and reap its feeder thread (idempotent)."""
        if q is None:
            return
        try:
            q.close()
            q.join_thread()
        except (OSError, ValueError):  # pragma: no cover — already torn down
            pass

    def stop(self, *, timeout: float = 5.0) -> None:
        if not self._started or self._stopping.is_set():
            return
        self._stop_control()
        for handle in self._handles.values():
            if handle.batcher is not None:
                handle.batcher.close(drain=False)
        for handle in self._handles.values():
            if handle.alive and handle.requests is not None:
                try:
                    handle.requests.put({"op": "shutdown", "batch_id": 0})
                except (OSError, ValueError):  # pragma: no cover — queue torn down
                    pass
        for handle in self._handles.values():
            if handle.process is not None:
                handle.process.join(timeout=timeout)
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=1.0)
            handle.alive = False
            if handle.dispatcher is not None:
                handle.dispatcher.join(timeout=1.0)
            # A dead queue keeps a feeder thread (and its pipe) alive until
            # closed — the flaky-teardown source under pytest reruns.
            self._close_queue(handle.requests)
            self._close_queue(handle.replies)

    def __enter__(self) -> "ClusterManager":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- the request path ------------------------------------------------------

    def healthy_shards(self) -> Set[str]:
        return {s for s, h in self._handles.items() if h.alive}

    def submit(
        self,
        scheduler: str,
        instance_doc: Dict[str, Any],
        *,
        trace_id: Optional[str] = None,
        timeout: Optional[float] = None,
        priority: Optional[str] = None,
        deadline_seconds: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Route one solve request through the cluster; blocks for the result.

        Returns the worker's response document (``status`` 200/4xx/5xx),
        or a synthesized 503/504 when no shard could serve it.  The
        request's trace id keys the consistent-hash routing, so retries
        of the same trace land on the same shard while topology holds.

        ``priority`` names the request's class (interactive / standard /
        best-effort; unknown values read as standard) — it weights the
        batcher dequeue and orders who sheds first under overload.
        ``deadline_seconds`` is the client's completion deadline from
        *now*: a request certain to miss it (measured against the
        shard's optimistic service floor) is shed 503 up front and again
        just before dispatch, so doomed work never reserves energy.
        With ``queue_target_seconds`` set, the shard's AIMD controller
        may refuse the request (``overload``); a full batcher queue
        answers ``queue_full``.
        """
        tid = trace_id or new_trace_id()
        cls = normalize_priority(priority)
        with collector(self.telemetry), trace_scope(tid):
            try:
                shard = self.router.route(tid, healthy=self.healthy_shards())
            except KeyError:
                self.telemetry.counter("frontend_rejected_total", reason="no_healthy_shards").inc()
                return error_doc(503, "no healthy shards", tid, 5.0)
            handle = self._handles[shard]
            state = self._overload[shard]
            if self.injector is not None:
                event = self.injector.fire(SUBMIT_SITE, shard)
                if event is not None and event.kind == "arrival_burst":
                    self._inject_burst(handle, int(event.magnitude), scheduler, instance_doc)
            if deadline_seconds is not None and state.signal.doomed(float(deadline_seconds)):
                return self._shed("deadline_doomed", cls, tid, 1.0)
            if state.controller is not None and not state.controller.admit(cls):
                return self._shed("overload", cls, tid, 1.0)
            return self._submit_admitted(
                handle, scheduler, instance_doc, tid, cls, timeout, deadline_seconds
            )

    def _shed(self, reason: str, cls: str, tid: Optional[str], retry_after: float) -> Dict[str, Any]:
        """Refuse one request 503, counted by reason and priority class."""
        self.telemetry.counter("overload_shed_total", reason=reason, **{"class": cls}).inc()
        return error_doc(503, reason, tid, retry_after)

    def _submit_admitted(
        self,
        handle: _ShardHandle,
        scheduler: str,
        instance_doc: Dict[str, Any],
        tid: str,
        cls: str,
        timeout: Optional[float],
        deadline_seconds: Optional[float],
    ) -> Dict[str, Any]:
        shard = handle.shard
        now = time.monotonic()
        item: Dict[str, Any] = {
            "scheduler": scheduler,
            "instance": instance_doc,
            "trace_id": tid,
            "priority": cls,
            "_enqueued": now,
        }
        if deadline_seconds is not None:
            item["_deadline_at"] = now + float(deadline_seconds)
        deadline = now + (timeout or self.config.request_timeout_seconds)
        with self.telemetry.span("frontend.request", shard=shard, scheduler=scheduler):
            try:
                assert handle.batcher is not None
                pending = handle.batcher.submit(item, priority=cls)
            except QueueFullError:
                return self._shed("queue_full", cls, tid, 1.0)
            except ValidationError:
                return error_doc(503, f"shard {shard} is shutting down", tid, 5.0)
            try:
                return pending.wait(max(deadline - time.monotonic(), 0.001))
            except TimeoutError:
                self._abandon(handle, item)
                self.telemetry.counter("frontend_rejected_total", reason="timeout").inc()
                return error_doc(504, "request timed out in the cluster", tid)
            except Exception as exc:  # noqa: BLE001 — dispatch failure surfaces as 500
                self.telemetry.counter("frontend_rejected_total", reason="dispatch_error").inc()
                return error_doc(500, f"dispatch failed: {exc}", tid)

    def _inject_burst(
        self, handle: _ShardHandle, count: int, scheduler: str, instance_doc: Dict[str, Any]
    ) -> None:
        """An ``arrival_burst`` chaos fault: flood the shard's queue.

        The burst is ``count`` best-effort copies of the arriving request
        with throwaway pending results — nobody waits on them, but they
        queue, solve, spend lease, and drive the measured queue delay up,
        which is exactly what exercises the admission loop.
        """
        now = time.monotonic()
        submitted = 0
        for _ in range(max(count, 0)):
            item = {
                "scheduler": scheduler,
                "instance": instance_doc,
                "trace_id": new_trace_id(),
                "priority": "best_effort",
                "_enqueued": now,
                "_synthetic": True,
            }
            try:
                assert handle.batcher is not None
                handle.batcher.submit(item, priority="best_effort")
            except (ValidationError, AssertionError):
                break
            submitted += 1
        if submitted:
            self.telemetry.counter(
                "chaos_burst_requests_total", shard=handle.shard
            ).add(submitted)

    def _abandon(self, handle: _ShardHandle, item: Dict[str, Any]) -> None:
        """A caller gave up: evict its queued item so the pending map cannot leak."""
        if handle.batcher is not None and handle.batcher.evict(item):
            self.telemetry.counter("frontend_abandoned_total", shard=handle.shard).inc()

    def _reserve_for(self, shard: str, batch: List[Tuple[Dict[str, Any], PendingResult]]) -> float:
        """How much lease to reserve for a window: the sum of the requests'
        own budgets.  The documents are still unparsed: a budget that is not
        a finite number >= 0 asks for the whole lease, as an infinite one
        does, and the shard answers it 400 if it is malformed.  The
        reservation clips to headroom either way."""
        lease = self.ledger.lease_of(shard)
        ask = 0.0
        for item, _ in batch:
            try:
                value = float(item["instance"].get("budget", "inf"))
            except (AttributeError, TypeError, ValueError):
                value = math.inf
            ask += value if math.isfinite(value) and value >= 0.0 else lease
        return self.ledger.reserve(shard, min(ask, lease))

    def _shed_doomed(
        self, handle: _ShardHandle, batch: List[Tuple[Dict[str, Any], PendingResult]]
    ) -> List[Tuple[Dict[str, Any], PendingResult]]:
        """Drop window members now certain to miss their deadline.

        This runs *before* the window reserves its lease grant, so a
        doomed request never spends a joule of B — the refund is by
        construction, not by release.  Doom is judged against the
        shard's optimistic service floor (see ``QueueDelaySignal.doomed``),
        so a request an idle shard could still have served in time survives.
        """
        state = self._overload[handle.shard]
        now = time.monotonic()
        kept: List[Tuple[Dict[str, Any], PendingResult]] = []
        for item, pending in batch:
            deadline_at = item.get("_deadline_at")
            if deadline_at is not None and state.signal.doomed(deadline_at - now):
                cls = normalize_priority(item.get("priority"))
                pending.resolve(self._shed("deadline_doomed", cls, item.get("trace_id"), 1.0))
                continue
            if deadline_at is not None and deadline_at - now <= 0.0:
                # Live invariant check: doomed() must have shed this above;
                # the benchmark gates on this staying at zero.
                self.telemetry.counter("overload_doomed_dispatched_total").inc()
            kept.append((item, pending))
        return kept

    def _send_window(self, handle: _ShardHandle, batch: List[Tuple[Dict[str, Any], PendingResult]]) -> None:
        """Batcher dispatch: reserve the grant and ship the window."""
        now = time.monotonic()
        waited = self.telemetry.histogram(
            "frontend_batcher_wait_seconds", buckets=_DELAY_BUCKETS, shard=handle.shard
        )
        for item, _ in batch:
            waited.observe(max(now - float(item.get("_enqueued", now)), 0.0))
        if not handle.alive:
            for item, pending in batch:
                pending.resolve(error_doc(503, f"shard {handle.shard} is down", item.get("trace_id"), 2.0))
            return
        batch = self._shed_doomed(handle, batch)
        if not batch:
            return
        batch_id = next(self._batch_ids)
        grant: Optional[float] = None
        if self.ledger.budget is not None:
            grant = self._reserve_for(handle.shard, batch)
        try:
            envelope: Dict[str, Any] = {
                "op": "window",
                "batch_id": batch_id,
                "epoch": handle.epoch,
                # Underscore keys are front-end bookkeeping (_attempts, _enqueued);
                # the worker never sees them.
                "requests": [
                    {k: v for k, v in item.items() if not k.startswith("_")} for item, _ in batch
                ],
            }
            if grant is not None:
                envelope["grant"] = grant
            with handle.lock:
                handle.inflight[batch_id] = ("window", batch, grant or 0.0, handle.epoch, time.monotonic())
        except BaseException:
            # The grant never reached the inflight map, so no settle path
            # (reply, death sweep, stale sweep) will ever see it: release
            # it here or it leaks as a phantom reservation forever.
            if grant is not None:
                self.ledger.release(handle.shard, grant, epoch=handle.epoch)
            raise
        try:
            handle.requests.put(envelope)
        except (OSError, ValueError):
            with handle.lock:
                handle.inflight.pop(batch_id, None)
            if grant is not None:
                self.ledger.release(handle.shard, grant, epoch=handle.epoch)
            for item, pending in batch:
                pending.resolve(error_doc(503, f"shard {handle.shard} unreachable", item.get("trace_id"), 2.0))

    def _settle_window(
        self,
        handle: _ShardHandle,
        entry: Tuple[str, Any, float, int, float],
        reply: Dict[str, Any],
    ) -> None:
        _, batch, grant, epoch, _ = entry
        results = reply.get("results", [])
        elapsed = reply.get("elapsed", [])
        state = self._overload[handle.shard]
        now = time.monotonic()
        for index, (item, pending) in enumerate(batch):
            if index < len(results):
                delivered = pending.resolve(results[index])
                if not delivered and results[index].get("status") == 200:
                    # A double-delivery detector: a 200 for a request that
                    # was already settled.  The solve is wasted energy but
                    # the client saw exactly one result.
                    self.telemetry.counter(
                        "frontend_duplicate_results_total", shard=handle.shard
                    ).inc()
            else:  # pragma: no cover — a worker always answers the full window
                pending.resolve(error_doc(503, "window truncated by worker", item.get("trace_id"), 2.0))
            # Feed the overload loop: the settled request's sojourn time
            # (submit -> result) drives AIMD admission; its solve time
            # tightens the deadline shedder's optimistic service floor.
            enqueued = item.get("_enqueued")
            if enqueued is not None:
                sojourn = max(now - float(enqueued), 0.0)
                state.signal.observe_sojourn(sojourn)
                if state.controller is not None:
                    state.controller.observe(sojourn)
                # The dispatcher thread has no ambient trace context, so
                # re-open the settling request's scope around the observe:
                # that is what lets the histogram capture an exemplar
                # linking its worst bucket to this request's /trace/<id>.
                tid = item.get("trace_id")
                with trace_scope(tid) if tid else contextlib.nullcontext():
                    self.telemetry.histogram(
                        "frontend_queue_delay_seconds", buckets=_DELAY_BUCKETS
                    ).observe(sojourn)
            if index < len(elapsed):
                state.signal.observe_service(float(elapsed[index]))
        if self.ledger.budget is None:
            return
        spent = float(reply.get("spent", 0.0))
        try:
            committed = self.ledger.commit(handle.shard, grant, spent, epoch=epoch)
        except ValidationError:
            # The worker overran its grant — record the whole grant as spent
            # (conservative: the ledger must never under-count) and flag it.
            self.telemetry.counter("lease_overruns_total", shard=handle.shard).inc()
            committed = self.ledger.commit(handle.shard, grant, grant, epoch=epoch)
        if not committed and spent > 0.0:
            # The window raced an epoch bump: its generation is fenced but
            # the energy was physically burned and journalled.  Re-record
            # it under the current epoch (grant=spend — the old epoch's
            # reservations were already dropped by the bump) so the
            # in-memory ledger never under-counts the durable one.
            self.ledger.commit(handle.shard, spent, spent)
            self.telemetry.counter("lease_fenced_spend_recommits_total", shard=handle.shard).inc()

    def _shard_died(self, handle: _ShardHandle) -> None:
        """A worker stopped answering: fence its generation, fail over.

        Every orphaned grant is committed *in full* rather than released:
        the dead worker may have journalled spend the front-end never saw,
        and the in-memory ledger must never under-count the durable one
        (released headroom would be re-granted — and re-spent — while the
        journal already holds the first spend).  Orphaned requests, and
        those still queued for the shard, retry on surviving shards with
        backoff; the epoch bump fences any straggler commit of the dead
        generation.
        """
        with handle.lock:
            if not handle.alive:
                return  # already declared dead
            handle.alive = False
            orphans = list(handle.inflight.values())
            handle.inflight.clear()
        self.telemetry.counter("shard_deaths_total", shard=handle.shard).inc()
        if handle.batcher is not None:
            # Requests still queued behind the dead window retry like its
            # orphans; failing them would answer 500 for a shard death.
            reason = f"shard {handle.shard} died before dispatch"
            handle.batcher.close(
                drain=False,
                on_undispatched=lambda item, pending: self._retry_or_fail(item, pending, reason),
            )
        for kind, payload, grant, epoch, _ in orphans:
            if grant and self.ledger.budget is not None:
                if self.injector is not None:
                    event = self.injector.fire(RELEASE_SITE, handle.shard)
                    if event is not None:
                        time.sleep(max(event.magnitude, 0.0))
                if self.ledger.commit(handle.shard, grant, grant, epoch=epoch):
                    self.telemetry.counter(
                        "lease_conservative_commits_total", shard=handle.shard
                    ).inc()
            if kind == "window":
                for item, pending in payload:
                    self._retry_or_fail(
                        item, pending, f"shard {handle.shard} died mid-request"
                    )
            else:
                payload.fail(ChildProcessError(f"shard {handle.shard} died"))
        self.ledger.bump_epoch(handle.shard)

    # -- retry / resubmission ---------------------------------------------------

    def _retry_or_fail(self, item: Dict[str, Any], pending: PendingResult, reason: str) -> None:
        """Requeue an orphaned request with bounded backoff, or 503 it.

        The retry is an entry the control loop fires once its backoff is due.
        """
        if pending.done:
            return
        attempts = int(item.get("_attempts", 0))
        if not self.config.supervise or attempts >= _MAX_RETRIES:
            pending.resolve(error_doc(503, reason, item.get("trace_id"), 2.0))
            return
        item["_attempts"] = attempts + 1
        delay = (
            self.config.retry_backoff_seconds
            * (2.0**attempts)
            * (0.5 + self._retry_rng.random())
        )
        self.telemetry.counter("frontend_retries_total").inc()
        entry = (time.monotonic() + delay, next(self._retry_seq), item, pending, reason)
        with self._retry_lock:
            heapq.heappush(self._retries, entry)

    def _resubmit(self, item: Dict[str, Any], pending: PendingResult, reason: str) -> None:
        """A due retry: re-route the request to a currently-healthy shard."""
        if pending.done or self._stopping.is_set():
            return
        tid = item.get("trace_id")
        try:
            shard = self.router.route(str(tid), healthy=self.healthy_shards())
        except KeyError:
            pending.resolve(error_doc(503, "no healthy shards", tid, 5.0))
            return
        handle = self._handles[shard]
        try:
            assert handle.batcher is not None
            handle.batcher.submit(item, pending=pending, priority=item.get("priority"))
        except (ValidationError, AssertionError):
            # The chosen shard shut its batcher between route and submit;
            # burn one more attempt rather than dropping the request.
            self._retry_or_fail(item, pending, reason)

    def _dispatch_loop(self, handle: _ShardHandle) -> None:
        """One worker generation's reply pump: settle what it answers until
        the generation is declared dead or the cluster stops."""
        replies = handle.replies
        while handle.alive and not self._stopping.is_set():
            try:
                reply = replies.get(timeout=0.2)
            except queue.Empty:
                continue
            except (OSError, ValueError):  # pragma: no cover — queue torn down
                return
            if reply.get("op") == "shutdown_ack":
                return
            with handle.lock:
                entry = handle.inflight.pop(reply.get("batch_id"), None)
            if entry is None:
                continue
            if entry[0] == "window":
                self._settle_window(handle, entry, reply)
            else:
                entry[1].resolve(reply)

    # -- the control loop ---------------------------------------------------------

    def _control_loop(self) -> None:
        """The cluster's one control thread; it never makes scheduling decisions.

        It sleeps until the next heartbeat, due retry or rebalance and
        does what fell due.  Retries are pushed from this thread (the
        death path and failed resubmits), so the sleep needs no wake-up.
        """
        now = time.monotonic()
        next_beat = now + self.config.heartbeat_seconds
        next_rebalance = now + self.config.rebalance_seconds
        while True:
            with self._retry_lock:
                wake_at = min(next_beat, next_rebalance, self._retries[0][0] if self._retries else math.inf)
            if self._stopping.wait(max(wake_at - time.monotonic(), 0.0)):
                return
            now = time.monotonic()
            due = []
            with self._retry_lock:
                while self._retries and self._retries[0][0] <= now:
                    due.append(heapq.heappop(self._retries))
            if now >= next_beat:
                self._heartbeat()
                next_beat = now + self.config.heartbeat_seconds
            for _, _, item, pending, reason in due:
                self._resubmit(item, pending, reason)
            if now >= next_rebalance:
                next_rebalance = now + self._rebalance()

    def _heartbeat(self) -> None:
        """Declare dead workers, restart them (bounded) when supervised, and
        sweep stale windows.

        A restart waits for the heartbeat after the death, so the dead
        shard's first retries land on the survivors, not on a worker
        still recovering its journal.
        """
        for handle in self._handles.values():
            if self._stopping.is_set():
                return
            process = handle.process
            if process is None:
                continue
            if not handle.alive:
                if self.config.supervise and handle.restarts < self.config.max_restarts:
                    self._restart_shard(handle)
            # A reply still queued from the dead worker settles first: the
            # dispatcher drains it, and the next heartbeat declares death.
            elif not process.is_alive() and handle.replies.empty():
                self._shard_died(handle)
        self._sweep_stale()

    def _restart_shard(self, handle: _ShardHandle) -> None:
        """Bring up a replacement worker generation for a dead shard.

        The epoch was bumped on the death path, so the replacement's
        grants carry a fresh fencing token; the new worker recovers the
        shard journal on startup (its cumulative-energy chain resumes
        where the crashed generation's last durable record left it).
        """
        self._close_queue(handle.requests)
        self._close_queue(handle.replies)
        if handle.dispatcher is not None:
            handle.dispatcher.join(timeout=1.0)
        handle.restarts += 1
        self._spawn_shard(handle, with_chaos=False)
        self.telemetry.counter("shard_restarts_total", shard=handle.shard).inc()

    def _sweep_stale(self) -> None:
        """Reap windows whose reply will never come (e.g. a dropped reply).

        Without this, a reply-queue drop leaks the window's grant as
        permanent phantom reservation.  The grant is committed in full —
        never released — because the worker may well have solved the
        window and journalled the spend; only the reply vanished.  The
        horizon sits at half the request timeout so the victims resolve
        as explicit 503s while their callers are still waiting (a late
        genuine reply finds its in-flight entry gone and is ignored —
        the pending settles exactly once).
        """
        horizon = 0.5 * self.config.request_timeout_seconds
        now = time.monotonic()
        for handle in self._handles.values():
            if not handle.alive:
                continue
            with handle.lock:
                stale = [
                    (batch_id, entry)
                    for batch_id, entry in handle.inflight.items()
                    if entry[0] == "window" and now - entry[4] > horizon
                ]
                for batch_id, _ in stale:
                    handle.inflight.pop(batch_id, None)
            for _, (kind, batch, grant, epoch, _sent) in stale:
                if grant and self.ledger.budget is not None:
                    self.ledger.commit(handle.shard, grant, grant, epoch=epoch)
                for item, pending in batch:
                    pending.resolve(
                        error_doc(503, f"shard {handle.shard} never answered", item.get("trace_id"), 2.0)
                    )
                self.telemetry.counter("frontend_swept_windows_total", shard=handle.shard).inc()

    def _rebalance(self) -> float:
        """One rebalance cycle: move lease headroom, publish the admit
        rates; returns the seconds until the next cycle."""
        with collector(self.telemetry):
            period = self.config.rebalance_seconds
            if self.injector is not None:
                event = self.injector.fire(REBALANCE_SITE)
                if event is not None:
                    # Clock skew: the next cadence tick drifts.
                    period = max(period + event.magnitude, 0.05)
            if self.ledger.budget is not None:
                self.ledger.rebalance()
            for shard, state in self._overload.items():
                if state.controller is not None:
                    self.telemetry.gauge("frontend_admit_rate", shard=shard).set(state.controller.rate)
            return period

    # -- observation -----------------------------------------------------------

    def _ask_shard(self, handle: _ShardHandle, op: str, timeout: float) -> Optional[Dict[str, Any]]:
        if not handle.alive:
            return None
        batch_id = next(self._batch_ids)
        pending = PendingResult()
        with handle.lock:
            handle.inflight[batch_id] = (op, pending, 0.0, handle.epoch, time.monotonic())
        try:
            handle.requests.put({"op": op, "batch_id": batch_id})
            return pending.wait(timeout)
        except (TimeoutError, ChildProcessError, OSError, ValueError):
            with handle.lock:
                handle.inflight.pop(batch_id, None)
            return None

    def shard_stats(self, *, timeout: float = 5.0) -> Dict[str, Optional[Dict[str, Any]]]:
        """Each live shard's stats document (``None`` for dead shards)."""
        return {s: self._ask_shard(h, "stats", timeout) for s, h in self._handles.items()}

    def health(self) -> Dict[str, Any]:
        healthy = self.healthy_shards()
        return {
            "status": "ok" if len(healthy) == len(self._handles) else ("degraded" if healthy else "down"),
            "shards": {s: ("up" if h.alive else "down") for s, h in self._handles.items()},
            "restarts": {s: h.restarts for s, h in self._handles.items()},
            "supervised": self.config.supervise,
            "ledger": self.ledger.to_dict(),
            "overload": self.overload_snapshot(),
        }

    def overload_snapshot(self) -> Dict[str, Any]:
        """The overload control plane's current state, for /health and tests."""
        return {
            "shards": {
                shard: {
                    "admit_rate": (
                        1.0 if state.controller is None else state.controller.rate
                    ),
                    "queue_delay": state.signal.snapshot(),
                }
                for shard, state in self._overload.items()
            },
        }

    def metrics_text(self, *, timeout: float = 5.0) -> str:
        """Cluster-wide Prometheus exposition: the front-end registry plus
        every worker registry, each worker metric labelled with its shard."""
        snap = self.telemetry.snapshot()
        metrics = list(snap["metrics"])
        for shard, stats in self.shard_stats(timeout=timeout).items():
            if stats is None:
                continue
            for entry in stats.get("telemetry", {}).get("metrics", []):
                labelled = dict(entry)
                labelled["labels"] = {**entry.get("labels", {}), "shard": shard}
                metrics.append(labelled)
        return prometheus_text({"metrics": metrics, "spans": []})

    def profile_document(self, *, timeout: float = 5.0) -> Dict[str, Any]:
        """Cluster-wide per-phase span attribution: per shard and merged.

        Each live shard's phases are the exact span self-times of the
        telemetry in its ``stats`` reply; the front-end adds its own and
        merges everything into one document for ``/debug/profile`` and
        ``repro top``.
        """
        shard_phases: Dict[str, Optional[Dict[str, Dict[str, float]]]] = {
            shard: None if stats is None else phase_breakdown(stats.get("telemetry", {}))
            for shard, stats in self.shard_stats(timeout=timeout).items()
        }
        breakdowns = [phases for phases in shard_phases.values() if phases is not None]
        breakdowns.append(phase_breakdown(self.telemetry.snapshot()))
        merged_phases = merge_phase_breakdowns(breakdowns)
        return {
            "shards": {
                shard: None if phases is None else {"phases": phases}
                for shard, phases in shard_phases.items()
            },
            "merged": {
                "phases": merged_phases,
                "hottest": [
                    {"phase": name, **entry} for name, entry in hottest_phases(merged_phases)
                ],
            },
        }

    def routes(self) -> Dict[str, Callable[[], Dict[str, Any]]]:
        """The cluster's own GET routes, beyond the handler's shared ones."""
        return {"/shards": lambda: {"shards": self.shard_stats()}, "/debug/profile": self.profile_document}

    def trace_document(self, trace_id: str, *, timeout: float = 5.0) -> Optional[Dict[str, Any]]:
        """One trace's spans across the whole cluster (front-end + workers)."""
        spans = trace_spans(self.telemetry, trace_id)
        for stats in self.shard_stats(timeout=timeout).values():
            if stats is not None:
                spans.extend(trace_spans(stats.get("telemetry", {"spans": []}), trace_id))
        if not spans:
            return None
        spans.sort(key=lambda s: (s["start"], s["span_id"]))
        return to_trace_events(spans, trace_id=trace_id)


# -- the HTTP surface -----------------------------------------------------------


class _ClusterHandler(SolveHandler):
    server_version = f"repro-cluster/{_pkg_version}"


def make_cluster_server(
    manager: ClusterManager, host: str = "127.0.0.1", port: int = 0, *, verbose: bool = False
) -> ThreadingHTTPServer:
    """The HTTP front-end for a (started) cluster; port 0 picks a free port."""
    server = ThreadingHTTPServer((host, port), _ClusterHandler)
    server.backend = manager  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    return server


def serve_cluster(
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    config: Optional[ClusterConfig] = None,
) -> None:
    """Run a cluster until interrupted (the CLI's ``cluster`` command)."""
    manager = ClusterManager(config if config is not None else ClusterConfig())
    manager.start()
    server = make_cluster_server(manager, host, port, verbose=True)
    cfg = manager.config
    budget = "unbounded" if cfg.budget is None else f"{cfg.budget:.1f} J"
    print(f"repro cluster front-end on http://{host}:{server.server_address[1]}")
    print(
        f"topology: {cfg.shards} shard worker(s), windows <= {cfg.max_batch} requests, "
        f"<= {cfg.max_wait_seconds * 1000:.0f} ms wait behind a busy shard, energy budget {budget}"
    )
    if cfg.journal_root is not None:
        print(f"durability: per-shard journals under {cfg.journal_root}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        manager.stop()
        if cfg.journal_root is not None:
            from .ledger import audit_cluster

            print(audit_cluster(cfg.journal_root, budget=cfg.budget).summary())
