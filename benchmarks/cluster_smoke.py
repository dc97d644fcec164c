"""CI cluster smoke: 2 shards, steady load, one worker killed mid-run.

Boots a 2-shard cluster with per-shard journals, drives a closed-loop
client load at it, terminates one worker process partway through, and
asserts the cluster's failure story end to end:

* the run keeps serving — post-kill requests succeed on the survivor;
* availability over the whole run (including the kill window) stays
  above a floor;
* ``/health``-equivalent state shows the kill was seen: a supervised
  cluster (the default) restarted the victim and reports ``ok``, an
  unsupervised one reports ``degraded``;
* the surviving shards' journalled spends still certify against the
  global budget (a crash must never corrupt or leak the ledger).

Writes ``BENCH_cluster_smoke.json`` with the full accounting and exits
non-zero if any assertion fails.

Usage::

    PYTHONPATH=src python benchmarks/cluster_smoke.py --duration 5
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
import time

from repro.cluster import ClusterConfig, ClusterManager, audit_cluster, run_load
from repro.cluster.bench import _make_instance_doc
from repro.telemetry import new_trace_id


#: How long a supervised cluster may take to restart the killed worker.
_HEAL_SECONDS = 10.0


def _healed(health, victim: str) -> bool:
    """The control loop saw the kill: the victim was restarted and all shards are up."""
    return health["restarts"].get(victim, 0) >= 1 and health["status"] == "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=5.0, help="seconds of load")
    parser.add_argument("--concurrency", type=int, default=4, help="closed-loop clients")
    parser.add_argument("--min-requests", type=int, default=200, help="request floor for the run")
    parser.add_argument("--kill-at", type=float, default=0.4, help="kill instant (fraction of duration)")
    parser.add_argument("--availability-floor", type=float, default=0.80, help="min ok fraction")
    parser.add_argument(
        "--budget-requests",
        type=float,
        default=10_000.0,
        help="global budget B sized to this many measured single-solve spends",
    )
    parser.add_argument("--out", default="BENCH_cluster_smoke.json")
    args = parser.parse_args(argv)

    journal_root = tempfile.mkdtemp(prefix="repro-cluster-smoke-")
    instance_doc = _make_instance_doc(10, 2, 0.5, seed=0)

    # Size B so budget enforcement is armed but never the bottleneck: the
    # smoke gates availability under worker death, not lease exhaustion.
    from repro.cluster import SolveService
    from repro.core.serialization import instance_from_dict

    probe = SolveService().solve_named("approx", instance_from_dict(instance_doc))
    budget = max(probe.schedule.total_energy, 1.0) * args.budget_requests
    config = ClusterConfig(
        shards=2,
        budget=budget,
        journal_root=journal_root,
        max_batch=8,
        max_wait_seconds=0.005,
        fsync="never",
    )
    manager = ClusterManager(config).start()
    post_kill_ok = []
    killed_at = []

    def killer() -> None:
        time.sleep(args.kill_at * args.duration)
        victim = sorted(manager.healthy_shards())[0]
        handle = manager._handles[victim]
        assert handle.process is not None
        handle.process.terminate()
        killed_at.append((victim, time.monotonic()))
        print(f"killed {victim} at {args.kill_at * args.duration:.1f}s into the run")

    def submit() -> int:
        status = int(manager.submit("approx", instance_doc, trace_id=new_trace_id()).get("status", 200))
        if killed_at and status == 200:
            post_kill_ok.append(1)
        return status

    killer_thread = threading.Thread(target=killer, daemon=True)
    killer_thread.start()
    try:
        stats = run_load(submit, duration=args.duration, concurrency=args.concurrency).to_dict()
        killer_thread.join(timeout=5.0)
        health = manager.health()
        if health["supervised"] and killed_at:
            # The control loop restarts the victim; give it a bounded while
            # to finish before judging what the cluster saw.
            victim = killed_at[0][0]
            deadline = time.monotonic() + _HEAL_SECONDS
            while not _healed(health, victim) and time.monotonic() < deadline:
                time.sleep(0.1)
                health = manager.health()
    finally:
        manager.stop()

    audit = audit_cluster(journal_root, budget=budget)
    availability = stats["ok"] / stats["requests"] if stats["requests"] else 0.0
    report = {
        "benchmark": "cluster-smoke",
        "load": stats,
        "availability": availability,
        "killed": killed_at[0][0] if killed_at else None,
        "post_kill_ok": len(post_kill_ok),
        "health_after": health,
        "audit": {
            "certified": audit.certified,
            "total_spent_joules": audit.total_spent,
            "violations": audit.violations,
        },
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(json.dumps({k: report[k] for k in ("availability", "killed", "post_kill_ok")}, indent=2))
    print(audit.summary())
    print(f"report written to {args.out}")

    failures = []
    if stats["requests"] < args.min_requests:
        failures.append(f"only {stats['requests']} requests issued (< {args.min_requests})")
    if not killed_at:
        failures.append("the killer thread never fired")
    if not post_kill_ok:
        failures.append("no request succeeded after the kill")
    if availability < args.availability_floor:
        failures.append(f"availability {availability:.3f} below floor {args.availability_floor}")
    if killed_at:
        victim = killed_at[0][0]
        if health["supervised"]:
            if not _healed(health, victim):
                failures.append(
                    f"supervised cluster did not heal {victim} after the kill: status "
                    f"{health['status']!r}, restarts {health['restarts'].get(victim)!r}"
                )
        elif health["status"] != "degraded":
            failures.append(f"health is {health['status']!r}, expected 'degraded' after a kill")
    if not audit.certified:
        failures.append(f"energy audit failed: {audit.violations}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
