"""Per-layer metrics from a traced run, and the human-readable tables.

Each operation's end-to-end time is split into layer self times
(``layers.decompose``), the intervals the benchmark times itself, and
the layers derived as parent minus children:

* ``loadgen.queue`` (serve-small): due time to send, the request's wait
  in the generator for a free connection;
* ``server.http`` / ``frontend.http``: the HTTP handler's turn (parse,
  route, answer) minus the layer spans of that request;
* ``server.wire`` / ``frontend.wire``: the client's round trip minus the
  handler's turn: connect, accept, handler-thread start, socket
  transfer and the client's own encoding;
* ``batcher.wait``: enqueue to window dispatch (front-end timestamps);
* ``ipc``: window dispatch to settlement, minus the front-end send and
  the worker's whole window (both pickling directions and queue hops).

A request waits for its whole worker window, so every request of a
window is charged the window's full worker-side layer times.  Shares
are layer time over summed end-to-end time.  ``trace.coverage`` is the
share of end-to-end time that a measured interval covers: the HTTP
handler's turn and the generator queue, or the online window's span.
The wire time is covered by nothing the program records, so a missing
handler wrapper or window span shows as lost coverage.
``trace.derived_share`` is the share that only subtraction attributes
(HTTP and IPC).
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Tuple

#: Layer (span) name -> metric prefix.
PREFIX = {
    "naive": "algorithms.naive",
    "worker.window": "worker.self",
    "solve_service.solve": "solve_service",
    "journal.append": "journal",
    "snapshot.save": "snapshot",
    "online.window": "online.self",
}



def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


#: Layers with no public seam, derived as parent minus children.
DERIVED = ("server.http", "frontend.http", "ipc")
#: Parts of the client's round trip that no measured interval covers.
UNCOVERED = ("server.wire", "frontend.wire")


def _name(layer: str) -> str:
    return PREFIX.get(layer, layer)


def _operations(workload: str, traced) -> List[Tuple[float, float, Dict[str, float]]]:
    """(end-to-end ms, covered ms, layer -> ms) for every timed operation of the traced run.

    Covered is the time a measured interval spans: the HTTP handler's
    turn plus the generator queue, or the online window's span.
    """
    trace = traced.trace
    ops, roots, front = trace["ops"], trace["roots"], trace.get("front", {})
    server = "server" if workload == "solve-large" else "frontend"
    out = []
    for key, (e2e, service) in traced.timed.items():
        parts: Dict[str, float] = dict(ops.get(key, {}))
        record = front.get(key, {})
        covered = roots.get(key, 0.0) if workload == "online-rolling" else 0.0
        if "handler" in record:
            handler = 1e3 * record["handler"]
            parts[f"{server}.http"] = max(handler - roots.get(key, 0.0), 0.0)
            parts[f"{server}.wire"] = max(service - handler, 0.0)
            covered = handler
        if e2e > service:
            parts["loadgen.queue"] = e2e - service
            covered += e2e - service
        window = record.get("window")
        if workload == "serve-small" and key in roots and window is not None and "sent_at" in record:
            wait = 1e3 * record["wait"]
            round_trip = 1e3 * (record["settled_at"] - record["sent_at"])
            send, ledger = 1e3 * record["send"], 1e3 * record["send_ledger"]
            parts["frontend.submit"] = max(parts.get("frontend.submit", 0.0) - wait - round_trip, 0.0)
            parts["batcher.wait"] = wait
            parts["frontend.send"] = max(send - ledger, 0.0)
            parts["ledger"] = parts.get("ledger", 0.0) + ledger
            for layer, ms in ops.get(window, {}).items():
                parts[layer] = parts.get(layer, 0.0) + ms
            parts["ipc"] = max(round_trip - send - roots.get(window, 0.0), 0.0)
        out.append((e2e, min(covered, e2e), parts))
    return out


def layer_metrics(workload: str, traced, measured) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of the traced run, by name, with its unit."""
    trace = traced.trace
    layers, counters, front = trace["layers"], trace["counters"], trace.get("front", {})
    operations = _operations(workload, traced)
    total = sum(e2e for e2e, _, _ in operations) or 1.0
    covered = sum(ms for _, ms, _ in operations)
    n_ops = max(len(operations), 1)
    shares: Dict[str, float] = {}
    for _, _, parts in operations:
        for layer, ms in parts.items():
            shares[layer] = shares.get(layer, 0.0) + ms / total
    out: Dict[str, Tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = (float(value), unit)

    def calls(layer: str) -> Dict[str, Any]:
        return layers.get(layer, {"count": 0, "self_ms": [], "total_ms": [], "n": 0})

    def per_op(layer: str) -> List[float]:
        return [parts[layer] for _, _, parts in operations if layer in parts]

    for layer in sorted(set(shares) | set(layers)):
        share_name = "accuracy.fit_share" if layer == "accuracy.fit" else f"{_name(layer)}.share"
        put(share_name, shares.get(layer, 0.0), "share")
    solves = max(calls("polish")["count"], 1)
    put("algorithms.naive.calls_per_solve", calls("naive")["count"] / solves, "count")
    put("segments.calls_per_solve", calls("segments")["count"] / solves, "count")
    put("water_fill.tau_calls_per_solve", calls("naive")["n"] / solves, "count")
    put("refine.iterations_per_solve", counters.get("pb_refine_iterations_total", 0.0) / solves, "count")
    put("polish.rounds_per_solve", counters.get("polish_rounds_total", 0.0) / solves, "count")
    for layer in (
        "solve_service.solve",
        "solve_service.payload",
        "schedule.feasibility",
        "serialization.from_dict",
        "serialization.to_dict",
        "frontend.submit",
        "admission",
        "journal.append",
        "snapshot.save",
    ):
        totals = calls(layer)["total_ms"]
        base = "admission.ms" if layer == "admission" else f"{layer}_ms"
        put(f"{base}_p50", percentile(totals, 0.50), "ms")
        put(f"{base}_p99", percentile(totals, 0.99), "ms")
    put("worker.self_ms_p50", percentile(calls("worker.window")["self_ms"], 0.50), "ms")
    for layer in ("server.http", "server.wire", "frontend.http", "frontend.wire", "batcher.wait", "ipc", "loadgen.queue"):
        values = per_op(layer)
        base = "ipc.ms" if layer == "ipc" else f"{layer}_ms"
        put(f"{base}_p50", percentile(values, 0.50), "ms")
        put(f"{base}_p99", percentile(values, 0.99), "ms")
    records = [front[key] for key in traced.timed if key in front and "window_size" in front[key]]
    put("batcher.window_size_mean", sum(r["window_size"] for r in records) / max(len(records), 1), "count")
    put("ipc.bytes_per_request", sum(r.get("ipc_bytes", 0) for r in records) / max(len(records), 1), "bytes")
    ledger = calls("ledger")
    put("ledger.calls", ledger["count"] / n_ops, "count")
    put("ledger.ms_total", sum(ledger["total_ms"]), "ms")
    put("ledger.denied", counters.get("pb_ledger_denied_total", 0.0), "count")
    put("admission.rejected", counters.get("pb_admission_rejected_total", 0.0), "count")
    put("journal.appends", calls("journal.append")["count"] / n_ops, "count")
    put("journal.bytes_per_op", counters.get("pb_journal_bytes_total", 0.0) / n_ops, "bytes")
    put("snapshot.saves", calls("snapshot.save")["count"] / n_ops, "count")
    put("accuracy.fit_calls", calls("accuracy.fit")["count"] / n_ops, "count")
    windows = calls("online.window")
    put("online.window_ms_p50", percentile(windows["total_ms"], 0.50), "ms")
    put("online.window_ms_p99", percentile(windows["total_ms"], 0.99), "ms")
    put("online.requests_per_window_mean", calls("accuracy.fit")["count"] / max(windows["count"], 1), "count")
    put("trace.coverage", covered / total, "share")
    put("trace.derived_share", sum(shares.get(layer, 0.0) for layer in DERIVED), "share")
    untraced = measured.metrics["latency_p50_ms"][0]
    put("trace.overhead_share", traced.metrics["latency_p50_ms"][0] / untraced - 1.0, "share")
    return out


def phase_mismatches(trace: Dict[str, Any]) -> List[str]:
    """Span counts read back through ``profile_document()`` must match the raw spans."""
    problems = []
    for name, entry in trace.get("phases", {}).items():
        seen = trace["layers"].get(name[len("pb.") :], {}).get("count", 0)
        if int(entry["count"]) != seen:
            problems.append(f"profile_document() has {entry['count']} {name} spans, the raw spans {seen}")
    return problems


def print_tables(workload, run, layer_metrics, audits, errors) -> None:
    print(f"workload {workload}: {run.attempted} operations, {run.failed} failed")
    print(f"{'end-to-end metric':<28} {'value':>14}  unit")
    for name, (value, unit) in run.metrics.items():
        print(f"{name:<28} {value:>14.6g}  {unit}")
    if run.load is not None:
        print(
            f"load generator: {run.load.peak} threads, "
            f"{run.load.peak} connections at most (nproc {os.cpu_count()})"
        )
    print(f"audits: {'all passed' if not audits else f'{len(audits)} FAILED'}")
    for problem in audits[:10]:
        print(f"  audit failure: {problem}")
    for problem in errors:
        print(f"  error: {problem}")
    if layer_metrics:
        print(f"{'per-layer metric':<40} {'value':>14}  unit")
        for name in sorted(layer_metrics):
            value, unit = layer_metrics[name]
            derived = "  (derived)" if name.startswith(DERIVED + UNCOVERED) else ""
            print(f"{name:<40} {value:>14.6g}  {unit}{derived}")
