"""Work-conserving solve windows: coalesce requests only while a shard is busy.

Under load the front-end does not dispatch every request to its shard
individually — queue/IPC round-trips would dominate small solves.
Instead a :class:`WindowBatcher` per shard coalesces arrivals into
bounded *solve windows*, adaptively (as in Clipper, Crankshaw et al.,
NSDI 2017): an **idle** shard — no window of this batcher still
unsettled — takes a window the moment a request arrives.  While a
dispatched window is in flight, arrivals coalesce, and the next window
leaves when the shard settles, when it holds ``max_batch`` items, or
``max_wait_seconds`` after the window opened, whichever comes first.
So a lone request on an idle shard pays nothing for batching, and the
timer only caps how long a request waits behind a busy shard — a window
whose reply was dropped cannot stall the shard past it.

Each submitted item gets a :class:`PendingResult` — a one-shot future
the dispatch path resolves from the worker's reply (or fails, e.g. when
the worker dies mid-window).  "In flight" is the number of unsettled
pendings in windows this batcher dispatched: a done-callback on each
pending decrements it, so every settle path (reply, shard death, stale
sweep, shed, failed send, hedge won elsewhere) frees the gate without
the dispatch path having to report back.  The batcher owns one daemon
thread; the dispatch callback runs on it, so callbacks must hand heavy
work onwards rather than solving inline.

Overload behaviour
------------------

Requests carry a **priority class** (interactive / standard /
best-effort).  Window formation is a weighted dequeue — each pass takes
up to ``priority_weights[rank]`` items from each class in rank order —
so interactive traffic keeps moving under load without starving the
others outright.  The queue is **bounded** (``max_queue``; submission
past the bound raises :class:`QueueFullError` and the front-end turns
that into a 503) and, when depth crosses ``lifo_threshold``, dequeue
flips to **adaptive LIFO** within each class: the newest arrivals are
served first, because under sustained overload the oldest queued
requests are the ones whose deadlines are already gone — FIFO would
spend the whole recovery serving requests nobody is still waiting for
(the classic metastable-queue failure).
"""

from __future__ import annotations

import contextvars
import threading
import time
from typing import Any, Callable, List, Optional, Tuple

from ..overload.controller import PRIORITY_CLASSES, PRIORITY_ORDER, normalize_priority
from ..telemetry import get_collector
from ..utils.errors import ValidationError
from ..utils.validation import check_positive, require

__all__ = ["PendingResult", "QueueFullError", "WindowBatcher", "DEFAULT_PRIORITY_WEIGHTS"]

#: Items taken per priority class per dequeue pass (interactive, standard,
#: best_effort).
DEFAULT_PRIORITY_WEIGHTS: Tuple[int, ...] = (4, 2, 1)


class QueueFullError(ValidationError):
    """The batcher's bounded queue is at capacity; shed instead of queueing."""


class PendingResult:
    """One-shot future for a submitted request (thread-safe).

    Settlement is first-wins: the first :meth:`resolve` or :meth:`fail`
    sticks and every later attempt is ignored (returning ``False``).
    That property is what makes hedged dispatch safe — two shards may
    race to settle the same pending, but the caller observes exactly
    one result and the loser's settle is detectable for cleanup.
    """

    __slots__ = ("_lock", "_event", "_value", "_error", "_callbacks")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._event = threading.Event()
        self._value: Any = None
        self._error: Optional[BaseException] = None
        self._callbacks: List[Callable[["PendingResult"], None]] = []

    def _settle(self, value: Any, error: Optional[BaseException]) -> bool:
        with self._lock:
            if self._event.is_set():
                return False
            self._value = value
            self._error = error
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)
        return True

    def resolve(self, value: Any) -> bool:
        """Settle with ``value``; ``False`` if already settled (late loser)."""
        return self._settle(value, None)

    def fail(self, error: BaseException) -> bool:
        """Settle with ``error``; ``False`` if already settled."""
        return self._settle(None, error)

    def add_done_callback(self, callback: Callable[["PendingResult"], None]) -> None:
        """Call ``callback(self)`` exactly once, when the result settles.

        It runs on the settling thread, outside this pending's lock — or
        at once on the caller's thread if the result already settled.
        """
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> Any:
        """Block for the result; raises the stored error or ``TimeoutError``."""
        if not self._event.wait(timeout):
            raise TimeoutError("request timed out waiting for its solve window")
        if self._error is not None:
            raise self._error
        return self._value


class WindowBatcher:
    """Coalesce submissions into ``dispatch(batch)`` calls on a worker thread.

    ``dispatch`` receives a list of ``(item, PendingResult)`` pairs and
    is responsible for resolving (or failing) every pending result it
    was handed.  Exceptions escaping ``dispatch`` fail the whole window
    — no request is ever silently dropped.

    Dispatch is work-conserving: with no dispatched pending unsettled, a
    window leaves as soon as an item is queued.  Otherwise queued items
    wait for the in-flight pendings to settle, for ``max_batch`` of
    them to gather, or for ``max_wait_seconds`` — whichever comes first.
    """

    def __init__(
        self,
        dispatch: Callable[[List[Tuple[Any, PendingResult]]], None],
        *,
        max_batch: int = 8,
        max_wait_seconds: float = 0.01,
        name: str = "batcher",
        max_queue: int = 4096,
        priority_weights: Tuple[int, ...] = DEFAULT_PRIORITY_WEIGHTS,
        lifo_threshold: Optional[int] = None,
    ):
        require(max_batch >= 1, f"max_batch must be >= 1, got {max_batch}")
        check_positive(max_wait_seconds, "max_wait_seconds")
        require(max_queue >= 1, f"max_queue must be >= 1, got {max_queue}")
        require(
            len(priority_weights) == len(PRIORITY_CLASSES)
            and all(int(w) >= 1 for w in priority_weights),
            f"priority_weights must be {len(PRIORITY_CLASSES)} ints >= 1, got {priority_weights}",
        )
        self.dispatch = dispatch
        self.max_batch = int(max_batch)
        self.max_wait_seconds = float(max_wait_seconds)
        self.name = name
        self.max_queue = int(max_queue)
        self.priority_weights = tuple(int(w) for w in priority_weights)
        #: Queue depth beyond which dequeue flips to newest-first within
        #: each class.  ``None`` disables adaptive LIFO (pure FIFO).
        self.lifo_threshold = None if lifo_threshold is None else int(lifo_threshold)
        self._lock = threading.Lock()
        # One FIFO list per priority class, rank order (bounded jointly
        # by max_queue — never grows past it by construction).
        self._queues: List[List[Tuple[Any, PendingResult]]] = [[] for _ in PRIORITY_CLASSES]
        self._wakeup = threading.Condition(self._lock)
        self._closed = False
        # Unsettled pendings of dispatched windows; the shard is busy while > 0.
        self._in_flight = 0
        # The loop runs under a copy of the creating context so spans and
        # trace scopes opened by dispatch land in the owning registry.
        context = contextvars.copy_context()
        self._thread = threading.Thread(
            target=lambda: context.run(self._loop), name=f"repro-{name}", daemon=True
        )
        self._thread.start()

    def _depth_locked(self) -> int:
        return sum(len(q) for q in self._queues)

    @property
    def depth(self) -> int:
        """Requests currently queued (all classes)."""
        with self._lock:
            return self._depth_locked()

    def submit(
        self,
        item: Any,
        *,
        pending: Optional[PendingResult] = None,
        priority: Optional[str] = None,
    ) -> PendingResult:
        """Queue ``item`` for the next window; returns its pending result.

        Retries and hedges pass their original ``pending`` so the caller
        keeps waiting on one future across re-dispatches; by default a
        fresh one is created.  ``priority`` names the request's class
        (default ``standard``); :class:`QueueFullError` is raised when
        the bounded queue is at capacity.
        """
        if pending is None:
            pending = PendingResult()
        rank = PRIORITY_ORDER[normalize_priority(priority)]
        with self._lock:
            if self._closed:
                raise ValidationError(f"batcher {self.name!r} is closed")
            depth = self._depth_locked()
            if depth >= self.max_queue:
                get_collector().counter(f"{self.name}_queue_full_total").inc()
                raise QueueFullError(
                    f"batcher {self.name!r} queue is full ({depth}/{self.max_queue})"
                )
            self._queues[rank].append((item, pending))
            get_collector().gauge(f"{self.name}_queue_depth").set(depth + 1)
            self._wakeup.notify()
        return pending

    def evict(self, item: Any) -> bool:
        """Drop a still-queued ``item`` (matched by identity) before dispatch.

        Returns ``True`` if the item was found waiting and removed — its
        pending result is left unsettled for the caller to dispose of.
        ``False`` means the item already left in a window (or was never
        queued) and will be settled by the dispatch path.
        """
        with self._lock:
            for queue in self._queues:
                for index, (queued, _) in enumerate(queue):
                    if queued is item:
                        del queue[index]
                        return True
        return False

    def _take_window_locked(self) -> List[Tuple[Any, PendingResult]]:
        """Form one window: weighted dequeue across classes, LIFO under load.

        Each pass takes up to ``priority_weights[rank]`` items from each
        class in rank order, repeating until the window is full or the
        queues are dry — interactive dominates but never starves the
        rest.  When total depth exceeds ``lifo_threshold`` items are
        taken newest-first within each class.
        """
        lifo = self.lifo_threshold is not None and self._depth_locked() > self.lifo_threshold
        window: List[Tuple[Any, PendingResult]] = []
        while len(window) < self.max_batch and any(self._queues):
            for rank, queue in enumerate(self._queues):
                take = min(self.priority_weights[rank], self.max_batch - len(window), len(queue))
                for _ in range(take):
                    window.append(queue.pop() if lifo else queue.pop(0))
                if len(window) >= self.max_batch:
                    break
        return window

    def _loop(self) -> None:
        tele = get_collector()
        while True:
            with self._lock:
                while not self._depth_locked() and not self._closed:
                    self._wakeup.wait()
                if self._closed and not self._depth_locked():
                    return
                # A window is open.  An idle shard takes it at once; a busy
                # one coalesces until it settles, the size bound trips or
                # the wait cap runs out.
                deadline = time.monotonic() + self.max_wait_seconds
                while self._in_flight and self._depth_locked() < self.max_batch and not self._closed:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._wakeup.wait(remaining)
                batch = self._take_window_locked()
                self._in_flight += len(batch)
                tele.gauge(f"{self.name}_queue_depth").set(self._depth_locked())
            if not batch:  # pragma: no cover — only on close races
                continue
            tele.counter(f"{self.name}_windows_total").inc()
            tele.histogram(f"{self.name}_window_size", buckets=(1, 2, 4, 8, 16, 32, 64)).observe(
                len(batch)
            )
            for _, pending in batch:
                pending.add_done_callback(self._settled)
            try:
                self.dispatch(batch)
            except BaseException as exc:  # noqa: BLE001 — every pending must settle
                for _, pending in batch:
                    if not pending.done:
                        pending.fail(exc)

    def _settled(self, _pending: PendingResult) -> None:
        """Done-callback of every dispatched pending: release its gate slot."""
        with self._lock:
            self._in_flight -= 1
            if not self._in_flight:
                self._wakeup.notify()

    def close(self, *, drain: bool = True) -> None:
        """Stop the batcher; ``drain=True`` dispatches queued items first."""
        with self._lock:
            self._closed = True
            leftovers: List[Tuple[Any, PendingResult]] = []
            if not drain:
                for queue in self._queues:
                    leftovers.extend(queue)
                    queue.clear()
            self._wakeup.notify_all()
        for _, pending in leftovers:
            pending.fail(ValidationError(f"batcher {self.name!r} closed"))
        self._thread.join(timeout=5.0)
