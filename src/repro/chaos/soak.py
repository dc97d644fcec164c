"""Chaos soak campaigns: seeded fault storms with invariant certification.

``repro chaos soak`` is the robustness proof of the sharded cluster: it
runs N seeded chaos campaigns — each a fresh cluster fed a fixed request
load while a :class:`~repro.chaos.schedule.ChaosSchedule` kills, stalls
and corrupts it — and after every campaign asserts the properties the
paper's budget model demands even under failure:

1. **Budget safety at every prefix** — each shard's durable
   cumulative-energy chain is monotone and internally consistent, and
   the chains sum within the global budget ``B``
   (:func:`repro.cluster.ledger.audit_cluster`); the in-memory ledger's
   own invariants (``spent + reserved <= lease``, ``sum(lease) <= B``)
   hold at shutdown.
2. **At-most-once delivery** — no request id ever yields two delivered
   solve results (`frontend_duplicate_results_total == 0`).
3. **Liveness** — at least ``min_resolve_rate`` of accepted requests
   resolve (a result or an explicit shed), not silent timeouts, despite
   mid-campaign SIGKILLs.

Campaigns are replayable: the planned fault timeline is a pure function
of the seed, and the fired timeline is journalled (``chaos-journal/``
next to the shard ledgers) for post-mortem — CI uploads it on failure.
"""

from __future__ import annotations

import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from .injector import FaultInjector
from .schedule import ChaosSchedule

__all__ = ["CampaignReport", "SoakReport", "run_campaign", "run_soak"]

#: Statuses that count as "resolved": the client got an answer — a solve
#: result or an explicit, retryable shed — rather than a silent timeout.
_RESOLVED_STATUSES = frozenset({200, 400, 503})


def _counter_total(snapshot: Dict[str, Any], name: str) -> float:
    """Sum one counter across all its label sets in a registry snapshot."""
    total = 0.0
    for entry in snapshot.get("metrics", []):
        if entry.get("name") == name and entry.get("kind") == "counter":
            total += float(entry.get("value", 0.0))
    return total


@dataclass
class CampaignReport:
    """One seeded chaos campaign: what was injected, what survived."""

    seed: int
    requests: int
    statuses: Dict[int, int]
    planned_faults: List[Dict[str, Any]]
    fired_faults: List[Dict[str, Any]]
    restarts: Dict[str, int]
    stale_commits: int
    duplicate_results: int
    resolve_rate: float
    total_spent: float
    budget: Optional[float]
    duration_seconds: float
    violations: List[str] = field(default_factory=list)
    journal_root: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        state = "OK" if self.ok else f"{len(self.violations)} violation(s)"
        budget = "unbounded" if self.budget is None else f"{self.budget:.0f} J"
        return (
            f"seed {self.seed}: {state} — {self.requests} requests, "
            f"{len(self.fired_faults)}/{len(self.planned_faults)} faults fired, "
            f"{sum(self.restarts.values())} restart(s), "
            f"{self.resolve_rate:.1%} resolved, "
            f"{self.total_spent:.1f} J spent of {budget}, "
            f"{self.duration_seconds:.1f}s"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "requests": self.requests,
            "statuses": {str(k): v for k, v in sorted(self.statuses.items())},
            "planned_faults": self.planned_faults,
            "fired_faults": self.fired_faults,
            "restarts": self.restarts,
            "stale_commits": self.stale_commits,
            "duplicate_results": self.duplicate_results,
            "resolve_rate": self.resolve_rate,
            "total_spent": self.total_spent,
            "budget": self.budget,
            "duration_seconds": self.duration_seconds,
            "violations": self.violations,
            "journal_root": self.journal_root,
            "ok": self.ok,
        }


@dataclass
class SoakReport:
    """Aggregate over a soak run's campaigns."""

    campaigns: List[CampaignReport]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.campaigns)

    @property
    def violations(self) -> List[str]:
        return [f"seed {c.seed}: {v}" for c in self.campaigns for v in c.violations]

    def summary(self) -> str:
        state = "CERTIFIED" if self.ok else f"{len(self.violations)} violation(s)"
        fired = sum(len(c.fired_faults) for c in self.campaigns)
        return (
            f"chaos soak: {state} — {len(self.campaigns)} campaign(s), "
            f"{fired} fault(s) fired, "
            f"{sum(c.requests for c in self.campaigns)} request(s)"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "campaigns": [c.to_dict() for c in self.campaigns],
            "violations": self.violations,
        }


def _campaign_load(
    manager: Any,
    instance_doc: Dict[str, Any],
    *,
    seed: int,
    requests: int,
    scheduler: str,
    concurrency: int,
    timeout: float,
) -> Tuple[Counter, List[str]]:
    """Drive the request load.

    Returns the status-code histogram and, for every request that did
    not resolve, one line naming its index, trace id, status and error
    text (the exception, for a submit that raised) — a liveness
    violation must say *why* a request went unanswered.

    Trace ids are deterministic in ``(seed, index)`` so the
    consistent-hash routing — and therefore each shard's operation
    counts, the triggers of the fault timeline — replay across runs of
    the same campaign.
    """

    def one(index: int) -> Tuple[int, Optional[str]]:
        tid = f"{seed & 0xFFFFFFFF:08x}{index:08x}"
        try:
            doc = manager.submit(scheduler, instance_doc, trace_id=tid, timeout=timeout)
        except Exception as exc:  # noqa: BLE001 — a crash counts as unresolved
            return -1, f"request {index} (trace {tid}): raised {type(exc).__name__}: {exc}"
        status = int(doc.get("status", 200))
        if status in _RESOLVED_STATUSES:
            return status, None
        return status, f"request {index} (trace {tid}): {status} {doc.get('error', '(no error text)')}"

    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        outcomes = list(pool.map(one, range(requests)))
    return Counter(status for status, _ in outcomes), [why for _, why in outcomes if why]


def run_campaign(
    seed: int,
    journal_root: Union[str, Path],
    *,
    shards: int = 2,
    budget: float = 150_000.0,
    requests: int = 30,
    n_events: int = 6,
    max_op: int = 12,
    scheduler: str = "approx",
    n_tasks: int = 12,
    n_machines: int = 3,
    beta: float = 0.5,
    concurrency: int = 4,
    request_timeout_seconds: float = 10.0,
    min_resolve_rate: float = 0.99,
) -> CampaignReport:
    """Run one seeded chaos campaign and certify its invariants.

    ``journal_root`` receives the shard ledgers (``shard-*/``) and the
    chaos journal (``chaos-journal/``); give every campaign its own
    directory.  Returns the report — ``report.ok`` is the verdict.
    """
    # Lazy: repro.cluster imports repro.chaos at module load.
    from ..cluster.bench import _make_instance_doc
    from ..cluster.frontend import ClusterConfig, ClusterManager
    from ..cluster.ledger import audit_cluster
    from ..durability.journal import read_events

    root = Path(journal_root)
    root.mkdir(parents=True, exist_ok=True)
    config = ClusterConfig(
        shards=shards,
        budget=budget,
        journal_root=str(root),
        max_batch=4,
        max_wait_seconds=0.005,
        request_timeout_seconds=request_timeout_seconds,
        rebalance_seconds=0.2,
        fsync="never",
        snapshot_every=10,
        supervise=True,
        heartbeat_seconds=0.1,
        max_restarts=3,
        retry_backoff_seconds=0.02,
    )
    schedule = ChaosSchedule(seed, config.shard_ids(), n_events=n_events, max_op=max_op)
    injector = FaultInjector(schedule, journal_dir=root / "chaos-journal")
    instance_doc = _make_instance_doc(n_tasks, n_machines, beta, seed)
    manager = ClusterManager(config, injector=injector)
    started = time.perf_counter()
    try:
        manager.start()
        statuses, unresolved = _campaign_load(
            manager,
            instance_doc,
            seed=seed,
            requests=requests,
            scheduler=scheduler,
            concurrency=concurrency,
            timeout=request_timeout_seconds,
        )
        health = manager.health()
        ledger_violations = manager.ledger.audit()
        stale_commits = manager.ledger.stale_commits
        telemetry_snapshot = manager.telemetry.snapshot()
    finally:
        manager.stop()
        injector.close()
    duration = time.perf_counter() - started

    resolved = sum(count for status, count in statuses.items() if status in _RESOLVED_STATUSES)
    resolve_rate = resolved / requests if requests else 1.0
    duplicates = int(_counter_total(telemetry_snapshot, "frontend_duplicate_results_total"))

    # Worker-site faults fire inside the shard *child* processes — their
    # injector copies are separate objects across the fork — so the fired
    # timeline is reassembled from the journalled ``chaos_event`` records
    # (each worker writes them into its own WAL before applying the fault).
    fired: List[Dict[str, Any]] = [e.to_dict() for e in injector.fired]
    for shard_dir in sorted(root.glob("shard-*")):
        for event in read_events(shard_dir):
            if event.get("type") == "chaos_event":
                fired.append({k: v for k, v in event.items() if k != "type"})
    fired.sort(key=lambda e: int(e.get("seq", -1)))

    violations: List[str] = []
    audit = audit_cluster(root, budget=budget)
    violations.extend(f"durable audit: {v}" for v in audit.violations)
    violations.extend(f"live ledger: {v}" for v in ledger_violations)
    if duplicates:
        violations.append(f"{duplicates} duplicate solve result(s) delivered for one request id")
    if resolve_rate < min_resolve_rate:
        violations.append(
            f"only {resolve_rate:.1%} of accepted requests resolved "
            f"(required {min_resolve_rate:.1%}); statuses: {dict(statuses)}; "
            f"unresolved: {'; '.join(unresolved)}"
        )
    return CampaignReport(
        seed=seed,
        requests=requests,
        statuses=dict(statuses),
        planned_faults=[e.to_dict() for e in injector.planned],
        fired_faults=fired,
        restarts=dict(health.get("restarts", {})),
        stale_commits=stale_commits,
        duplicate_results=duplicates,
        resolve_rate=resolve_rate,
        total_spent=audit.total_spent,
        budget=budget,
        duration_seconds=duration,
        violations=violations,
        journal_root=str(root),
    )


def run_soak(
    seeds: Sequence[int],
    out_root: Union[str, Path],
    *,
    shards: int = 2,
    budget: float = 150_000.0,
    requests: int = 30,
    n_events: int = 6,
    max_op: int = 12,
    scheduler: str = "approx",
    concurrency: int = 4,
    request_timeout_seconds: float = 10.0,
    min_resolve_rate: float = 0.99,
    progress: Optional[Callable[[str], None]] = None,
) -> SoakReport:
    """Run one campaign per seed (each under ``out_root/seed-<s>``)."""
    campaigns: List[CampaignReport] = []
    for seed in seeds:
        report = run_campaign(
            int(seed),
            Path(out_root) / f"seed-{int(seed):04d}",
            shards=shards,
            budget=budget,
            requests=requests,
            n_events=n_events,
            max_op=max_op,
            scheduler=scheduler,
            concurrency=concurrency,
            request_timeout_seconds=request_timeout_seconds,
            min_resolve_rate=min_resolve_rate,
        )
        campaigns.append(report)
        if progress is not None:
            progress(report.summary())
    return SoakReport(campaigns=campaigns)
