"""``repro bench overload``: seeded open-loop overload campaigns.

The overload controller's job is *goodput under stress without
metastable collapse*: when offered load exceeds capacity, serve what can
be served, shed what cannot, and — critically — return to normal once
the spike passes.  This harness measures exactly that, with a seeded
arrival schedule so a failing run replays bit-for-bit:

1. **calibrate** — a short closed-loop burst measures the cluster's
   capacity (served requests/second);
2. **baseline** — open-loop Poisson arrivals at 0.5× capacity;
3. **spike** — 3× capacity (the controller must shed);
4. **sustained** — 2× capacity (graceful degradation, not collapse);
5. **recovery** — back to 0.5× capacity: after a short settle window
   (the admit rate's documented regrowth time) goodput must return to
   ≥95% of the baseline phase — the no-metastable-failure assertion.
   The settle window offers real load; it is only excluded from the
   statistics.

Each phase records goodput, p99 latency, deadline-miss rate of served
requests, mean served accuracy, and the shed mix; the report lands in
``benchmarks/BENCH_overload.json`` together with the overload counters
and (when journaled) the :func:`~repro.cluster.ledger.audit_cluster`
certificate that Σ spent ≤ B held throughout the storm.
"""

from __future__ import annotations

import contextvars
import json
import math
import random
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from ..cluster.bench import _make_instance_doc
from ..cluster.frontend import ClusterConfig, ClusterManager
from ..cluster.ledger import audit_cluster
from ..telemetry import new_trace_id
from ..utils.fileio import atomic_write
from ..utils.validation import check_positive, require

__all__ = ["bench_overload", "PHASE_MULTIPLIERS"]

#: phase name -> offered load as a multiple of calibrated capacity
PHASE_MULTIPLIERS: Dict[str, float] = {
    "baseline": 0.5,
    "spike": 3.0,
    "sustained": 2.0,
    "recovery": 0.5,
}

#: priority mix of generated traffic (seeded, so the trace is reproducible)
_PRIORITY_MIX = (("interactive", 2), ("standard", 5), ("best_effort", 3))


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return float("nan")
    ordered = sorted(values)
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


def _run_phase(
    submit: Callable[[str], Dict[str, Any]],
    *,
    rate: float,
    duration: float,
    deadline_seconds: float,
    seed: int,
    warmup_seconds: float = 0.0,
    max_outstanding: int = 256,
) -> Dict[str, Any]:
    """Open-loop Poisson arrivals at ``rate`` req/s for ``duration`` seconds.

    Arrival times and priority classes come from one seeded RNG — the
    offered trace is a pure function of ``(rate, duration, seed)``.
    ``submit`` blocks for the cluster's answer; each completion records
    status, latency, and (for 200s) the served accuracy.

    ``warmup_seconds`` extends the phase by a settle window at the
    start: warmup arrivals offer real load but are excluded from the
    statistics.  The recovery phase uses it so "goodput after the
    storm" is measured once the admit rate has had its documented
    regrowth time — not averaged over the transient.
    """
    check_positive(rate, "rate")
    check_positive(duration, "duration")
    require(warmup_seconds >= 0.0, f"warmup_seconds must be >= 0, got {warmup_seconds}")
    rng = random.Random(seed)
    names = [name for name, _ in _PRIORITY_MIX]
    weights = [weight for _, weight in _PRIORITY_MIX]
    records: List[Dict[str, Any]] = []
    record_lock = threading.Lock()

    def one_request(priority: str, measured: bool) -> None:
        t0 = time.perf_counter()
        doc = submit(priority)
        latency = time.perf_counter() - t0
        entry: Dict[str, Any] = {
            "status": int(doc.get("status", 200)),
            "latency": latency,
            "priority": priority,
            "reason": doc.get("error"),
            "measured": measured,
        }
        accuracy = doc.get("metrics", {}).get("mean_accuracy") if isinstance(doc, dict) else None
        if accuracy is not None:
            entry["accuracy"] = float(accuracy)
        with record_lock:
            records.append(entry)

    threads: List[threading.Thread] = []
    start = time.perf_counter()
    clock = start
    measure_from = start + warmup_seconds
    end = measure_from + duration
    while clock < end:
        clock += rng.expovariate(rate)
        measured = clock >= measure_from
        priority = rng.choices(names, weights=weights)[0]
        now = time.perf_counter()
        if clock > now:
            time.sleep(clock - now)
        context = contextvars.copy_context()
        thread = threading.Thread(
            target=lambda c=context, p=priority, m=measured: c.run(one_request, p, m),
            daemon=True,
        )
        thread.start()
        threads.append(thread)
        if len(threads) > max_outstanding:
            threads.pop(0).join()
    for thread in threads:
        thread.join(timeout=30.0)
    elapsed = time.perf_counter() - start
    measured_window = max(elapsed - warmup_seconds, 1e-9)

    counted = [r for r in records if r["measured"]]
    served = [r for r in counted if r["status"] == 200]
    latencies = [r["latency"] for r in counted]
    misses = [r for r in served if r["latency"] > deadline_seconds]
    accuracies = [r["accuracy"] for r in served if "accuracy" in r]
    shed: Dict[str, int] = {}
    for r in counted:
        if r["status"] == 503:
            key = str(r.get("reason") or "unknown")
            shed[key] = shed.get(key, 0) + 1
    return {
        "offered_rps": rate,
        "duration_s": elapsed,
        "warmup_s": warmup_seconds,
        "requests": len(counted),
        "served": len(served),
        "goodput_rps": len(served) / measured_window,
        "latency_p99_s": _percentile(latencies, 0.99),
        "deadline_miss_rate": (len(misses) / len(served)) if served else 0.0,
        "mean_served_accuracy": (sum(accuracies) / len(accuracies)) if accuracies else None,
        "shed_503": shed,
    }


def bench_overload(
    out_path: str = "benchmarks/BENCH_overload.json",
    *,
    shards: int = 2,
    scheduler: str = "approx",
    n_tasks: int = 10,
    n_machines: int = 3,
    beta: float = 0.5,
    budget: Optional[float] = None,
    journal_root: Optional[str] = None,
    seed: int = 0,
    calibrate_seconds: float = 2.0,
    phase_seconds: float = 4.0,
    concurrency: int = 8,
    deadline_seconds: float = 2.0,
    queue_target_seconds: float = 0.25,
    recovery_settle_seconds: float = 2.0,
    min_recovery: float = 0.95,
    progress: Callable[[str], None] = print,
) -> Dict[str, Any]:
    """The ``repro bench overload`` implementation; returns the written report."""
    require(shards >= 1, f"shards must be >= 1, got {shards}")
    check_positive(phase_seconds, "phase_seconds")
    check_positive(calibrate_seconds, "calibrate_seconds")
    instance_doc = _make_instance_doc(n_tasks, n_machines, beta, seed)
    auto_budget = journal_root is not None and budget is None
    if auto_budget:
        # Every solve spends up to the instance's own budget, so a global B
        # must be sized in those units.  ~10k solves of headroom: finite —
        # every lease reserve/commit/refund and the final audit are against
        # a real cap — but generous, so the phases measure queueing under
        # overload rather than budget starvation.
        budget = float(instance_doc["budget"]) * 10_000.0
    config = ClusterConfig(
        shards=shards,
        budget=budget,
        journal_root=journal_root,
        max_batch=8,
        max_wait_seconds=0.005,
        request_timeout_seconds=10.0,
        # The queue-delay signal's max age is 4x this cadence, so the
        # phases' measurements depend on it.
        rebalance_seconds=0.25,
        fsync="never" if journal_root is None else "rotate",
        queue_target_seconds=queue_target_seconds,
        adaptive_lifo=True,
    )
    report: Dict[str, Any] = {
        "benchmark": "cluster-overload",
        "config": {
            "shards": shards,
            "scheduler": scheduler,
            "instance": {"n": n_tasks, "m": n_machines, "beta": beta, "seed": seed},
            "budget_joules": budget,
            "budget_auto_sized": auto_budget,
            "seed": seed,
            "phase_seconds": phase_seconds,
            "deadline_seconds": deadline_seconds,
            "queue_target_seconds": queue_target_seconds,
            "recovery_settle_seconds": recovery_settle_seconds,
            "min_recovery": min_recovery,
            "phase_multipliers": dict(PHASE_MULTIPLIERS),
        },
    }

    with ClusterManager(config) as manager:

        def submit(priority: str) -> Dict[str, Any]:
            return manager.submit(
                scheduler,
                instance_doc,
                trace_id=new_trace_id(),
                priority=priority,
                deadline_seconds=deadline_seconds,
            )

        progress(f"calibrating capacity: {concurrency} closed-loop client(s), {calibrate_seconds:.1f} s ...")
        served = 0
        served_lock = threading.Lock()
        cal_end = time.perf_counter() + calibrate_seconds

        def calibrate_loop() -> None:
            nonlocal served
            while time.perf_counter() < cal_end:
                doc = submit("standard")
                if int(doc.get("status", 0)) == 200:
                    with served_lock:
                        served += 1

        cal_threads = []
        for _ in range(concurrency):
            context = contextvars.copy_context()
            thread = threading.Thread(target=lambda c=context: c.run(calibrate_loop), daemon=True)
            thread.start()
            cal_threads.append(thread)
        for thread in cal_threads:
            thread.join()
        capacity = max(served / calibrate_seconds, 1.0)
        report["capacity_rps"] = capacity
        progress(f"  capacity ~ {capacity:.1f} req/s")

        phases: Dict[str, Dict[str, Any]] = {}
        for index, (name, multiplier) in enumerate(PHASE_MULTIPLIERS.items()):
            rate = max(capacity * multiplier, 0.5)
            warmup = recovery_settle_seconds if name == "recovery" else 0.0
            settle = f" (+{warmup:.1f} s settle)" if warmup else ""
            progress(
                f"phase {name}: {rate:.1f} req/s ({multiplier}x capacity), "
                f"{phase_seconds:.1f} s{settle} ..."
            )
            phases[name] = _run_phase(
                submit,
                rate=rate,
                duration=phase_seconds,
                deadline_seconds=deadline_seconds,
                seed=seed * 1000 + index,
                warmup_seconds=warmup,
            )
            stats = phases[name]
            accuracy = stats["mean_served_accuracy"]
            progress(
                f"  goodput {stats['goodput_rps']:.1f} req/s, p99 {stats['latency_p99_s'] * 1000:.0f} ms, "
                f"miss rate {stats['deadline_miss_rate']:.1%}, "
                f"accuracy {'n/a' if accuracy is None else f'{accuracy:.3f}'}"
            )
        report["phases"] = phases

        snapshot = manager.telemetry.snapshot()
        counters: Dict[str, Any] = {}
        for metric in snapshot.get("metrics", []):
            name = metric.get("name", "")
            if name.startswith(("overload_", "chaos_burst")):
                label = ",".join(f"{k}={v}" for k, v in sorted(metric.get("labels", {}).items()))
                counters[f"{name}{{{label}}}" if label else name] = metric.get("value")
        report["overload_counters"] = counters
        report["overload"] = manager.overload_snapshot()
        doomed = counters.get("overload_doomed_dispatched_total", 0)
        report["doomed_dispatched"] = doomed

    baseline = phases["baseline"]["goodput_rps"]
    recovery = phases["recovery"]["goodput_rps"]
    fraction = (recovery / baseline) if baseline > 0 else (0.0 if recovery == 0 else math.inf)
    report["recovery_fraction"] = fraction
    # A zero-goodput baseline (e.g. the budget ran dry in calibration) is a
    # broken campaign, never a recovered one.
    report["recovered"] = bool(baseline > 0 and fraction >= min_recovery)
    sustained_ok = phases["sustained"]["goodput_rps"] >= 0.8 * min(capacity, phases["sustained"]["offered_rps"])
    report["sustained_goodput_ok"] = bool(sustained_ok)
    progress(
        f"recovery: {fraction:.1%} of baseline goodput "
        f"({'ok' if report['recovered'] else f'BELOW the {min_recovery:.0%} bar'})"
    )

    if journal_root is not None:
        audit = audit_cluster(journal_root, budget=budget)
        report["audit"] = {
            "certified": audit.certified,
            "total_spent_joules": audit.total_spent,
            "budget_joules": budget,
            "violations": audit.violations,
        }
        progress("  " + audit.summary())

    path = Path(out_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    progress(f"report written to {path}")
    return report
