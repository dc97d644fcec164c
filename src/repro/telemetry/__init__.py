"""Observability for every solver and serving path.

The measurement substrate the perf/scaling work reports against:

* :class:`MetricsRegistry` — labeled counters, gauges, histograms, plus
  a span/timer API tracing nested solver phases;
* :func:`collector` / :func:`get_collector` — context-local activation
  with a shared no-op default, so uninstrumented runs pay (almost)
  nothing;
* exporters — JSON-lines and Prometheus text, each with a parser
  (:func:`load_file`) for round-tripping and offline inspection.

Quick start::

    from repro.telemetry import collector, export_file

    with collector() as reg:
        ApproxScheduler().solve(instance)
    export_file(reg, "metrics.jsonl")

or from the CLI: ``repro solve --metrics-out metrics.jsonl`` then
``repro telemetry metrics.jsonl``.
"""

from .context import NOOP, NullCollector, active_collector, collector, get_collector
from .exporters import (
    detect_format,
    export_file,
    load_file,
    parse_prometheus,
    prometheus_text,
    read_jsonl,
    write_jsonl,
    write_prometheus,
)
from .registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SpanRecord,
    TelemetryError,
    current_trace_id,
    ensure_trace,
    new_trace_id,
    trace_scope,
)

__all__ = [
    "MetricsRegistry",
    "new_trace_id",
    "current_trace_id",
    "trace_scope",
    "ensure_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "SpanRecord",
    "TelemetryError",
    "DEFAULT_BUCKETS",
    "collector",
    "get_collector",
    "active_collector",
    "NullCollector",
    "NOOP",
    "write_jsonl",
    "read_jsonl",
    "write_prometheus",
    "prometheus_text",
    "parse_prometheus",
    "export_file",
    "load_file",
    "detect_format",
]
