"""Per-layer tracing for the benchmark's traced runs.

:func:`install` wraps the public function of every layer with a span
named ``pb.<layer>``, recorded through the program's own telemetry
(``get_collector()``; where no collector is active, the registry given
as ``fallback``).  It runs inside the system-under-test process before
the server starts, so forked cluster workers inherit the wrappers and
record into their per-shard registries.  Nothing under ``src/`` changes.

:func:`decompose` turns registry snapshots into per-layer numbers.  A
layer's *self* time is its span's duration minus the layer spans nested
directly below it; spans the program emits itself are transparent,
except the few in :data:`NATIVE_LAYERS` that stand in for a function
too hot to wrap.  Self times are grouped per *operation*: a root layer
span keys its operation by trace id (or by worker window), and nested
layer spans inherit their root's key.

Layers that have no public seam (HTTP, batcher wait, IPC) are derived
from timestamps the :data:`FRONT` records keep per trace id: the HTTP
handler's whole turn, and the front-end's window dispatch and settlement.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import pickle
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

PREFIX = "pb."

#: Spans the program already opens, used as layers.  ``WaterFiller.tau``
#: runs once per task per Algorithm 2 call (thousands of times per large
#: solve), so a span per call would swamp the solve; the program's own
#: ``naive.water_fill`` span times exactly that loop, and the call count
#: is the task count of each Algorithm 2 call.
NATIVE_LAYERS = {"naive.water_fill": "water_fill"}

#: Per-request records of the serving process, keyed by trace id.
FRONT: Dict[str, Dict[str, float]] = {}

_fallback: List[Any] = [None]
_local = threading.local()


def _registry():
    from repro.telemetry import active_collector

    return active_collector() or _fallback[0]


def _spanned(
    layer: str,
    *,
    labels: Optional[Callable[..., Dict[str, Any]]] = None,
    scope: Optional[Callable[..., Any]] = None,
    after: Optional[Callable[..., None]] = None,
    ledger: bool = False,
):
    """Decorator factory: run the wrapped function inside a ``pb.<layer>`` span."""
    name = PREFIX + layer

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            reg = _registry()
            if reg is None:
                return fn(*args, **kwargs)
            span_labels = labels(*args, **kwargs) if labels is not None else {}
            context = scope(*args, **kwargs) if scope is not None else contextlib.nullcontext()
            t0 = time.perf_counter()
            with context, reg.span(name, **span_labels):
                out = fn(*args, **kwargs)
            if ledger and getattr(_local, "ledger", None) is not None:
                _local.ledger += time.perf_counter() - t0
            if after is not None:
                after(reg, out, *args, **kwargs)
            return out

        return wrapper

    return decorate


def _patch_function(module_name: str, attr: str, decorator) -> None:
    """Replace ``module.attr`` and every ``from module import attr`` copy."""
    original = getattr(importlib.import_module(module_name), attr)
    wrapped = decorator(original)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and getattr(module, attr, None) is original:
            setattr(module, attr, wrapped)


def _patch_method(cls, attr: str, decorator) -> None:
    setattr(cls, attr, decorator(getattr(cls, attr)))


# -- counters recorded next to the spans ------------------------------------------


def _count_refine(reg, result, *args, **kwargs) -> None:
    reg.counter("pb_refine_iterations_total").add(result.iterations)


def _count_rejection(reg, decision, *args, **kwargs) -> None:
    if not decision.admitted:
        reg.counter("pb_admission_rejected_total").inc()


def _count_denial(reg, grant, ledger, shard, amount, *args, **kwargs) -> None:
    if grant <= 0.0 < amount:
        reg.counter("pb_ledger_denied_total").inc()


def _count_journal_bytes(reg, index, writer, event, *args, **kwargs) -> None:
    from repro.durability.journal import encode_record

    reg.counter("pb_journal_bytes_total").add(len(encode_record(event)))


def _trace_scope_of(*args, trace_id=None, **kwargs):
    from repro.telemetry import trace_scope

    return trace_scope(trace_id) if trace_id else contextlib.nullcontext()


# -- serving records with no public seam ---------------------------------------------


def _wrap_handle_one_request(fn):
    """Time the handler's whole turn: parse, route, answer, flush."""

    @functools.wraps(fn)
    def wrapper(handler):
        t0 = time.perf_counter()
        try:
            return fn(handler)
        finally:
            headers = getattr(handler, "headers", None)
            trace_id = headers.get("X-Repro-Trace-Id") if headers is not None else None
            if trace_id:
                FRONT.setdefault(str(trace_id), {})["handler"] = time.perf_counter() - t0

    return wrapper


def _wrap_send_window(fn):
    @functools.wraps(fn)
    def wrapper(manager, handle, batch):
        t0 = time.monotonic()
        _local.ledger = 0.0
        try:
            return fn(manager, handle, batch)
        finally:
            t1 = time.monotonic()
            spent_on_ledger, _local.ledger = _local.ledger, None
            for item, _ in batch:
                record = FRONT.setdefault(str(item.get("trace_id")), {})
                record["wait"] = t0 - float(item.get("_enqueued", t0))
                record["send"] = t1 - t0
                record["send_ledger"] = spent_on_ledger
                record["sent_at"] = t0
                record["window_size"] = len(batch)
                wire = {k: v for k, v in item.items() if not k.startswith("_")}
                record["ipc_bytes"] = record.get("ipc_bytes", 0) + len(pickle.dumps(wire))

    return wrapper


def _wrap_settle_window(fn):
    @functools.wraps(fn)
    def wrapper(manager, handle, entry, reply):
        t0 = time.monotonic()
        try:
            return fn(manager, handle, entry, reply)
        finally:
            results = reply.get("results", [])
            window = f"{handle.shard}:{reply.get('batch_id')}"
            for index, (item, _) in enumerate(entry[1]):
                record = FRONT.setdefault(str(item.get("trace_id")), {})
                record["window"] = window
                record["settled_at"] = t0
                if index < len(results):
                    record["ipc_bytes"] = record.get("ipc_bytes", 0) + len(pickle.dumps(results[index]))

    return wrapper


def install(fallback=None) -> None:
    """Wrap every layer's public function; call once per process."""
    _fallback[0] = fallback
    for module in (
        "repro.server",
        "repro.cluster.frontend",
        "repro.cluster.worker",
        "repro.cluster.ledger",
        "repro.durability.run",
        "repro.online.planner",
        "repro.algorithms.approx",
        "repro.algorithms.fractional",
        "repro.algorithms.naive_solution",
        "repro.workloads.generator",
    ):
        importlib.import_module(module)
    from repro.cluster.frontend import ClusterManager, _ClusterHandler
    from repro.cluster.ledger import EnergyLeaseLedger
    from repro.cluster.solve_service import SolveService
    from repro.core.schedule import Schedule
    from repro.durability.journal import JournalWriter
    from repro.durability.run import DurableRun
    from repro.durability.snapshot import SnapshotStore
    from repro.resilience.admission import AdmissionController
    from repro.server import _Handler

    # The solver (Algorithms 1-5).
    _patch_function(
        "repro.algorithms.naive_solution",
        "compute_naive_solution",
        _spanned("naive", labels=lambda instance, *a, **k: {"n": len(instance.tasks)}),
    )
    _patch_function("repro.core.segments", "build_segment_list", _spanned("segments"))
    _patch_function("repro.algorithms.single_machine", "solve_single_machine", _spanned("single_machine"))
    _patch_function("repro.algorithms.refine_profile", "refine_profile", _spanned("refine", after=_count_refine))
    _patch_function("repro.algorithms.fractional", "solve_fractional", _spanned("polish"))
    _patch_function("repro.algorithms.approx", "round_fractional", _spanned("approx.round"))
    # Serving, serialization and the feasibility audit.
    _patch_method(SolveService, "solve", _spanned("solve_service.solve"))
    _patch_function("repro.cluster.solve_service", "solve_payload", _spanned("solve_service.payload"))
    _patch_method(Schedule, "feasibility", _spanned("schedule.feasibility"))
    _patch_function("repro.core.serialization", "instance_from_dict", _spanned("serialization.from_dict"))
    _patch_function("repro.core.serialization", "schedule_to_dict", _spanned("serialization.to_dict"))
    _patch_method(AdmissionController, "try_begin", _spanned("admission", after=_count_rejection))
    _patch_method(_Handler, "handle_one_request", _wrap_handle_one_request)
    _patch_method(_ClusterHandler, "handle_one_request", _wrap_handle_one_request)
    # The cluster front-end, lease ledger and worker windows.
    _patch_method(ClusterManager, "submit", _spanned("frontend.submit", scope=_trace_scope_of))
    _patch_method(ClusterManager, "_send_window", _wrap_send_window)
    _patch_method(ClusterManager, "_settle_window", _wrap_settle_window)
    _patch_method(EnergyLeaseLedger, "reserve", _spanned("ledger", after=_count_denial, ledger=True))
    _patch_method(EnergyLeaseLedger, "commit", _spanned("ledger", ledger=True))
    _patch_method(EnergyLeaseLedger, "release", _spanned("ledger", ledger=True))
    _patch_function(
        "repro.cluster.worker",
        "_handle_window",
        _spanned(
            "worker.window",
            labels=lambda state, envelope, *a, **k: {
                "window": f"{state.config.shard}:{envelope.get('batch_id')}"
            },
        ),
    )
    # Durability and the online path.
    _patch_method(JournalWriter, "append", _spanned("journal.append", after=_count_journal_bytes))
    _patch_method(SnapshotStore, "save", _spanned("snapshot.save"))
    _patch_function("repro.core.accuracy", "fit_piecewise", _spanned("accuracy.fit"))
    _patch_function("repro.workloads.generator", "tasks_from_thetas", _spanned("online.tasks"))
    # The caller opens each window's trace scope (``sut.py``), so the span
    # and the window's independently timed latency share one key.
    _patch_method(DurableRun, "_plan_window", _spanned("online.window"))


# -- decomposition ------------------------------------------------------------------


def _layer_of(name: str) -> Optional[str]:
    if name.startswith(PREFIX):
        return name[len(PREFIX) :]
    return NATIVE_LAYERS.get(name)


def decompose(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Self times per operation and per layer, plus the benchmark counters.

    Returns ``ops`` (operation key -> layer -> self ms), ``roots``
    (operation key -> summed duration of its root layer spans, ms),
    ``root_layer`` (operation key -> layer of its first root span),
    ``layers`` (layer -> count, self ms list, total ms list, summed
    ``n`` label) and ``counters`` (metric name -> summed value).
    """
    ops: Dict[str, Dict[str, float]] = {}
    roots: Dict[str, float] = {}
    root_layer: Dict[str, str] = {}
    layers: Dict[str, Dict[str, Any]] = {}
    counters: Dict[str, float] = {}
    for snap in snapshots:
        for metric in snap.get("metrics", []):
            if metric.get("kind") == "counter":
                counters[metric["name"]] = counters.get(metric["name"], 0.0) + float(metric["value"])
        spans = [s for s in snap.get("spans", []) if s.get("duration") is not None]
        by_id = {s["span_id"]: s for s in spans}
        layer_parent: Dict[int, Optional[int]] = {}
        key_of: Dict[int, str] = {}
        child_ms: Dict[int, float] = {}
        ordered = sorted(spans, key=lambda s: s["span_id"])
        for span in ordered:
            if _layer_of(span["name"]) is None:
                continue
            parent = span.get("parent_id")
            while parent is not None and parent in by_id and _layer_of(by_id[parent]["name"]) is None:
                parent = by_id[parent].get("parent_id")
            if parent is not None and parent not in by_id:
                parent = None
            layer_parent[span["span_id"]] = parent
            if parent is not None and parent in key_of:
                key_of[span["span_id"]] = key_of[parent]
                child_ms[parent] = child_ms.get(parent, 0.0) + 1e3 * float(span["duration"])
            else:
                labels = span.get("labels") or {}
                key_of[span["span_id"]] = str(
                    labels.get("window") or span.get("trace_id") or f"root-{id(snap)}-{span['span_id']}"
                )
        for span in ordered:
            sid = span["span_id"]
            if sid not in key_of:
                continue
            layer = _layer_of(span["name"])
            total = 1e3 * float(span["duration"])
            own = max(total - child_ms.get(sid, 0.0), 0.0)
            key = key_of[sid]
            bucket = ops.setdefault(key, {})
            bucket[layer] = bucket.get(layer, 0.0) + own
            if layer_parent[sid] is None:
                roots[key] = roots.get(key, 0.0) + total
                root_layer.setdefault(key, layer)
            stats = layers.setdefault(layer, {"count": 0, "self_ms": [], "total_ms": [], "n": 0})
            stats["count"] += 1
            stats["self_ms"].append(own)
            stats["total_ms"].append(total)
            stats["n"] += int((span.get("labels") or {}).get("n", 0))
    return {"ops": ops, "roots": roots, "root_layer": root_layer, "layers": layers, "counters": counters}
