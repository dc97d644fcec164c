"""The metric store: labeled counters, gauges, histograms and spans.

A :class:`MetricsRegistry` is the library's *collector*: solvers, the
planner and the simulators report into whichever registry is active (see
:mod:`repro.telemetry.context`).  The design follows the Prometheus data
model — a metric is identified by a name plus a set of label key/value
pairs, and every distinct label-value combination is its own time
series — restricted to what an offline scheduling library needs:

* **counters** only go up (``inc``/``add``);
* **gauges** hold the last value ``set`` (with ``add`` for deltas);
* **histograms** accumulate observations into fixed buckets plus a
  running count/sum/min/max;
* **spans** trace nested phases (segment build → water-filling →
  refine; model build → solve; window plan → dispatch) with wall-clock
  durations.  Every finished span also observes its duration into the
  ``span_duration_seconds`` histogram labeled by span name, so phase
  latency distributions come for free.  A registry keeps the newest
  :data:`MAX_SPANS` spans.

The registry is thread-safe: scalar updates take a lock, and the span
stack lives only in a :class:`~contextvars.ContextVar` so concurrent
server requests trace independently *and* parent links survive
context-aware thread hops (``contextvars.copy_context().run`` in the
resilience layer's deadline workers).  Where the time went is read
back from the closed spans (:func:`repro.profile.phase_breakdown`).

Tracing (see :mod:`repro.observe.tracing` for the high-level API) hangs
off the same spans: a *trace id* set with :func:`trace_scope` is stamped
onto every span opened while the scope is active, which is what lets one
served request be followed across the server, solver and journal.
"""

from __future__ import annotations

import contextlib
import threading
import time
import uuid
import warnings
from bisect import bisect_left
from collections import deque
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "TelemetryError",
    "Counter",
    "Gauge",
    "Histogram",
    "SpanRecord",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "new_trace_id",
    "current_trace_id",
    "trace_scope",
    "ensure_trace",
]

#: Latency-oriented default histogram buckets (seconds); an implicit
#: +Inf bucket always follows the last bound.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)

#: Hard cap on distinct label-value combinations per metric name — a
#: guard against accidentally labeling by an unbounded value (task id,
#: timestamp) and blowing up memory.
MAX_SERIES_PER_METRIC = 1000

#: Spans a registry keeps: the newest, in a ring.  A long-lived server
#: opens spans for as long as it serves, and every shard ``stats`` probe
#: ships them all; each span pushed out is counted in
#: :data:`DROPPED_SPANS_METRIC`.
MAX_SPANS = 65_536

LabelItems = Tuple[Tuple[str, str], ...]


#: Self-metric bumped when a series is dropped at the cardinality cap.
#: Exempt from the cap itself (its cardinality is bounded by the number
#: of distinct metric *names*, which is finite by construction).
DROPPED_SERIES_METRIC = "telemetry_series_dropped_total"

#: Self-metric bumped when the span ring pushes out its oldest span.
DROPPED_SPANS_METRIC = "telemetry_spans_dropped_total"


class TelemetryError(ValueError):
    """Raised on inconsistent metric declarations (kind/labels clashes)."""


# -- trace identity ----------------------------------------------------------------
#
# The trace id is a context-local string; spans opened while one is set
# carry it.  These primitives live here (not in repro.observe) so the
# registry can stamp spans without an upward dependency.

_TRACE_ID: ContextVar[Optional[str]] = ContextVar("repro_trace_id", default=None)


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id."""
    return uuid.uuid4().hex[:16]


def current_trace_id() -> Optional[str]:
    """The trace id active in this context, or ``None``."""
    return _TRACE_ID.get()


@contextlib.contextmanager
def trace_scope(trace_id: str) -> Iterator[str]:
    """Activate ``trace_id`` for the enclosed block (nested scopes shadow)."""
    tid = str(trace_id)
    token = _TRACE_ID.set(tid)
    try:
        yield tid
    finally:
        _TRACE_ID.reset(token)


@contextlib.contextmanager
def ensure_trace() -> Iterator[str]:
    """Reuse the active trace id, or open a fresh scope around the block."""
    tid = _TRACE_ID.get()
    if tid is not None:
        yield tid
        return
    with trace_scope(new_trace_id()) as tid:
        yield tid


def _label_items(labels: Dict[str, object]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value."""

    kind = "counter"

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self) -> None:
        """Increment by one."""
        self.value += 1.0

    def add(self, amount: float) -> None:
        """Increment by ``amount`` (must be >= 0)."""
        if amount < 0:
            raise TelemetryError(f"counter {self.name!r} cannot decrease (add({amount}))")
        self.value += float(amount)


class Gauge:
    """Last-value metric; can move in both directions."""

    kind = "gauge"

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the current value."""
        self.value = float(value)

    def add(self, amount: float) -> None:
        """Shift the current value by ``amount`` (may be negative)."""
        self.value += float(amount)


class Histogram:
    """Bucketed distribution of observations.

    Each series also keeps one OpenMetrics-style *exemplar*: the
    largest observation recorded while a trace was active, with its
    trace id.  A slow bucket in an exposition scrape therefore links
    straight back to the ``/trace/<id>`` timeline of the request that
    produced it.
    """

    kind = "histogram"

    __slots__ = (
        "name",
        "labels",
        "buckets",
        "bucket_counts",
        "count",
        "sum",
        "min",
        "max",
        "exemplar_value",
        "exemplar_trace_id",
    )

    def __init__(self, name: str, labels: LabelItems, buckets: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise TelemetryError(f"histogram {name!r} needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise TelemetryError(f"histogram {name!r} buckets must be strictly increasing: {bounds}")
        self.name = name
        self.labels = labels
        self.buckets = bounds
        # One slot per finite bound plus the +Inf overflow slot.
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.exemplar_value: Optional[float] = None
        self.exemplar_trace_id: Optional[str] = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.bucket_counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if self.exemplar_value is None or value >= self.exemplar_value:
            trace_id = _TRACE_ID.get()
            if trace_id is not None:
                self.exemplar_value = value
                self.exemplar_trace_id = trace_id

    @property
    def mean(self) -> float:
        """Mean observation (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def cumulative_counts(self) -> List[int]:
        """Prometheus-style cumulative bucket counts (ends with ``count``)."""
        out: List[int] = []
        running = 0
        for c in self.bucket_counts:
            running += c
            out.append(running)
        return out


@dataclass
class SpanRecord:
    """One traced phase: a named interval with nesting links.

    ``start`` and ``duration`` come from ``time.perf_counter()`` — a
    monotonic clock that cannot run backwards under NTP adjustment —
    while ``wall_start`` is the ``time.time()`` instant the span opened,
    kept for aligning traces against external timestamps (journal
    records, log lines).  ``trace_id`` is the request-scoped trace the
    span belongs to (``None`` outside any :func:`trace_scope`).
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    depth: int
    start: float  #: monotonic seconds since the registry was created
    labels: LabelItems = ()
    duration: Optional[float] = None  #: filled when the span closes
    wall_start: float = 0.0  #: wall-clock (epoch) seconds at open
    trace_id: Optional[str] = None  #: active trace id at open

    @property
    def closed(self) -> bool:
        return self.duration is not None


class _SpanContext:
    """Context manager produced by :meth:`MetricsRegistry.span`."""

    __slots__ = ("_registry", "record", "_t0")

    def __init__(self, registry: "MetricsRegistry", record: SpanRecord):
        self._registry = registry
        self.record = record
        self._t0 = 0.0

    def __enter__(self) -> SpanRecord:
        self._t0 = time.perf_counter()
        return self.record

    def __exit__(self, *exc) -> None:
        self._registry._close_span(self.record, time.perf_counter() - self._t0)


class MetricsRegistry:
    """Holds every metric series and span of one collection run."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, LabelItems], object] = {}
        self._kinds: Dict[str, str] = {}
        self._label_keys: Dict[str, Tuple[str, ...]] = {}
        self._series_count: Dict[str, int] = {}
        self._overflow_warned: set = set()
        self.spans: Deque[SpanRecord] = deque(maxlen=MAX_SPANS)
        # Immutable tuple per context: new threads/contexts start empty,
        # copy_context() hand-offs inherit the parent chain read-only.
        self._stack: ContextVar[Tuple[SpanRecord, ...]] = ContextVar(
            "repro_span_stack", default=()
        )
        self._next_span_id = 0
        self._epoch = time.perf_counter()

    # -- series management -----------------------------------------------------

    def _series(self, cls, name: str, labels: Dict[str, object], **kwargs):
        items = _label_items(labels)
        key = (name, items)
        warn = False
        with self._lock:
            kind = self._kinds.get(name)
            if kind is not None and kind != cls.kind:
                raise TelemetryError(f"metric {name!r} already registered as a {kind}, not a {cls.kind}")
            metric = self._metrics.get(key)
            if metric is not None:
                return metric
            keys = tuple(k for k, _ in items)
            known_keys = self._label_keys.get(name)
            if known_keys is not None and known_keys != keys:
                raise TelemetryError(
                    f"metric {name!r} used with label keys {keys}, previously {known_keys} — "
                    "label *values* may vary, label keys must not"
                )
            if (
                self._series_count.get(name, 0) >= MAX_SERIES_PER_METRIC
                and name != DROPPED_SERIES_METRIC
            ):
                # Over the cap: do NOT register the new combination.  The
                # caller still gets a working (detached) series so hot
                # paths never crash on cardinality, and the overflow is
                # made visible below instead of silently capping.
                if name not in self._overflow_warned:
                    self._overflow_warned.add(name)
                    warn = True
            else:
                metric = cls(name, items, **kwargs)
                self._metrics[key] = metric
                self._kinds[name] = cls.kind
                self._label_keys[name] = keys
                self._series_count[name] = self._series_count.get(name, 0) + 1
                return metric
        # Overflow path, outside the lock (the self-metric re-enters _series).
        if warn:
            warnings.warn(
                f"metric {name!r} exceeded {MAX_SERIES_PER_METRIC} label combinations — "
                "an unbounded value (id, timestamp) is probably being used as a label; "
                "further combinations are dropped (see telemetry_series_dropped_total)",
                RuntimeWarning,
                stacklevel=4,
            )
        self.counter(DROPPED_SERIES_METRIC, metric=name).inc()
        return cls(name, items, **kwargs)

    def counter(self, name: str, **labels) -> Counter:
        """Get or create the counter series ``name{labels}``."""
        return self._series(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """Get or create the gauge series ``name{labels}``."""
        return self._series(Gauge, name, labels)

    def histogram(
        self, name: str, *, buckets: Sequence[float] = DEFAULT_BUCKETS, **labels
    ) -> Histogram:
        """Get or create the histogram series ``name{labels}``.

        ``buckets`` only takes effect when the series is first created;
        later calls return the existing series unchanged.
        """
        return self._series(Histogram, name, labels, buckets=buckets)

    # -- spans -----------------------------------------------------------------

    def span(self, name: str, **labels) -> _SpanContext:
        """Open a traced phase; nest freely (per thread / context)."""
        stack = self._stack.get()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = self._next_span_id
            self._next_span_id += 1
            record = SpanRecord(
                span_id=span_id,
                parent_id=parent.span_id if parent is not None else None,
                name=name,
                depth=len(stack),
                start=time.perf_counter() - self._epoch,
                labels=_label_items(labels),
                wall_start=time.time(),
                trace_id=current_trace_id(),
            )
            evicting = len(self.spans) == self.spans.maxlen
            self.spans.append(record)
        if evicting:
            self.counter(DROPPED_SPANS_METRIC).inc()
        self._stack.set(stack + (record,))
        return _SpanContext(self, record)

    def _close_span(self, record: SpanRecord, elapsed: float) -> None:
        record.duration = elapsed
        stack = self._stack.get()
        # The span being closed is normally the innermost; guard against
        # out-of-order exits from generator-based context managers.
        if record in stack:
            self._stack.set(tuple(s for s in stack if s is not record))
        self.histogram("span_duration_seconds", span=record.name).observe(elapsed)

    def timer(self, name: str, *, buckets: Sequence[float] = DEFAULT_BUCKETS, **labels) -> "_TimerContext":
        """Context manager observing its elapsed seconds into histogram ``name``."""
        return _TimerContext(self.histogram(name, buckets=buckets, **labels))

    # -- introspection ---------------------------------------------------------

    def __iter__(self) -> Iterator[object]:
        """Iterate metric series in insertion order."""
        with self._lock:
            return iter(list(self._metrics.values()))

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str, **labels):
        """Return the series ``name{labels}`` or ``None``."""
        return self._metrics.get((name, _label_items(labels)))

    def snapshot(self) -> dict:
        """Plain-data view of every series and span (exporters build on this)."""
        metrics: List[dict] = []
        for metric in self:
            entry: dict = {
                "kind": metric.kind,
                "name": metric.name,
                "labels": dict(metric.labels),
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
                entry["bucket_counts"] = list(metric.bucket_counts)
                entry["count"] = metric.count
                entry["sum"] = metric.sum
                if metric.count:
                    entry["min"] = metric.min
                    entry["max"] = metric.max
                if metric.exemplar_trace_id is not None:
                    entry["exemplar"] = {
                        "value": metric.exemplar_value,
                        "trace_id": metric.exemplar_trace_id,
                    }
            else:
                entry["value"] = metric.value
            metrics.append(entry)
        with self._lock:
            spans = [
                {
                    "span_id": s.span_id,
                    "parent_id": s.parent_id,
                    "name": s.name,
                    "depth": s.depth,
                    "start": s.start,
                    "duration": s.duration,
                    "labels": dict(s.labels),
                    "wall_start": s.wall_start,
                    "trace_id": s.trace_id,
                }
                for s in self.spans
            ]
        return {"metrics": metrics, "spans": spans}


class _TimerContext:
    """Minimal timing context manager bound to one histogram series."""

    __slots__ = ("_histogram", "_t0", "elapsed")

    def __init__(self, histogram: Histogram):
        self._histogram = histogram
        self._t0 = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "_TimerContext":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._t0
        self._histogram.observe(self.elapsed)
