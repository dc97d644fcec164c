"""Tests for repro.chaos: timelines, injection, fencing, supervision, soak."""

from __future__ import annotations

import os
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import (
    FAULT_KINDS,
    WORKER_SITE,
    ChaosEvent,
    ChaosSchedule,
    FaultInjector,
    run_campaign,
    site_of,
)
from repro.cluster import ClusterConfig, ClusterManager, EnergyLeaseLedger, audit_cluster
from repro.core.serialization import instance_to_dict
from repro.durability.journal import JournalWriter, encode_record, read_events
from repro.telemetry import MetricsRegistry

from conftest import make_instance


def counter_total(registry, name, **labels):
    """Sum a counter across label sets matching ``labels``."""
    total = 0.0
    for entry in registry.snapshot()["metrics"]:
        if entry.get("name") != name or entry.get("kind") != "counter":
            continue
        if all(entry.get("labels", {}).get(k) == v for k, v in labels.items()):
            total += entry["value"]
    return total


# -- the schedule: a pure function of the seed -----------------------------------


def test_schedule_is_bit_reproducible():
    shards = ["shard-00", "shard-01", "shard-02"]
    first = ChaosSchedule(7, shards, n_events=16, max_op=10)
    second = ChaosSchedule(7, shards, n_events=16, max_op=10)
    assert first == second
    assert first.timeline() == second.timeline()
    assert ChaosSchedule(8, shards, n_events=16, max_op=10) != first


def test_schedule_plans_at_most_one_fatal_per_shard():
    for seed in range(20):
        schedule = ChaosSchedule(seed, ["s0", "s1"], n_events=12, max_op=10)
        for shard in ("s0", "s1"):
            fatal = [e for e in schedule.events if e.shard == shard and e.fatal]
            assert len(fatal) <= 1, f"seed {seed}: {fatal}"


def test_schedule_events_for_orders_by_trigger():
    schedule = ChaosSchedule(3, ["s0", "s1"], n_events=10, max_op=8)
    for shard in ("s0", "s1"):
        events = schedule.events_for(WORKER_SITE, shard)
        assert all(e.site == WORKER_SITE for e in events)
        assert [(e.at_op, e.seq) for e in events] == sorted(
            (e.at_op, e.seq) for e in events
        )


def test_site_of_rejects_unknown_kind():
    assert site_of("worker_kill") == WORKER_SITE
    with pytest.raises(Exception, match="unknown fault kind"):
        site_of("meteor_strike")


# -- the injector: op-count triggering ------------------------------------------


def test_injector_fires_on_operation_counts():
    events = [
        ChaosEvent(seq=0, kind="worker_stall", site=WORKER_SITE, shard="s0", at_op=2, magnitude=0.1),
        ChaosEvent(seq=1, kind="reply_drop", site=WORKER_SITE, shard="s0", at_op=3),
    ]
    registry = MetricsRegistry()
    injector = FaultInjector(ChaosSchedule.from_events(events), telemetry=registry)
    assert injector.fire(WORKER_SITE, "s0") is None  # op 1: nothing planned
    fired = injector.fire(WORKER_SITE, "s0")  # op 2
    assert fired is not None and fired.kind == "worker_stall"
    fired = injector.fire(WORKER_SITE, "s0")  # op 3
    assert fired is not None and fired.kind == "reply_drop"
    assert injector.fire(WORKER_SITE, "s0") is None  # timeline exhausted
    assert [e.seq for e in injector.fired] == [0, 1]
    assert injector.outstanding == 0
    assert counter_total(registry, "chaos_faults_injected_total", shard="s0") == 2.0


def test_injector_never_skips_a_late_trigger():
    # An event planned for op 1 observed first at op 5 still fires (once).
    events = [ChaosEvent(seq=0, kind="worker_stall", site=WORKER_SITE, shard="s0", at_op=1)]
    injector = FaultInjector(ChaosSchedule.from_events(events))
    injector._counters[(WORKER_SITE, "s0")] = 4  # site was observed elsewhere
    assert injector.fire(WORKER_SITE, "s0") is not None
    assert injector.fire(WORKER_SITE, "s0") is None


# -- epoch fencing: the zombie double-spend defence ------------------------------


def test_stale_epoch_commit_is_rejected():
    ledger = EnergyLeaseLedger(100.0, ["s0", "s1"])
    grant = ledger.reserve("s0", 40.0)
    epoch = ledger.epoch_of("s0")
    assert ledger.bump_epoch("s0") == epoch + 1
    assert ledger.commit("s0", grant, 30.0, epoch=epoch) is False
    assert ledger.spent_of("s0") == 0.0
    assert ledger.stale_commits == 1
    ledger.release("s0", grant, epoch=epoch)  # stale release: no-op
    assert ledger.stale_commits == 2
    # The bump returned the fenced reservation; fresh grants work.
    fresh = ledger.reserve("s0", 40.0)
    assert fresh == pytest.approx(40.0)
    assert ledger.commit("s0", fresh, 25.0, epoch=ledger.epoch_of("s0")) is True
    assert ledger.spent_of("s0") == pytest.approx(25.0)
    assert ledger.audit() == []


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("reserve"), st.integers(0, 7), st.floats(0.0, 60.0)),
        st.tuples(st.just("commit"), st.integers(0, 7), st.floats(0.0, 1.0)),
        st.tuples(st.just("release"), st.integers(0, 7), st.just(0.0)),
        st.tuples(st.just("crash"), st.integers(0, 7), st.just(0.0)),
        st.tuples(st.just("replay"), st.integers(0, 7), st.floats(0.0, 1.0)),
        st.tuples(st.just("rebalance"), st.just(0), st.just(0.0)),
    ),
    max_size=40,
)


@given(ops=_OPS)
@settings(max_examples=150, deadline=None)
def test_lease_fencing_never_overspends(ops):
    """Property (satellite d): any interleaving of grant / spend / crash /
    restart / stale-grant-replay keeps every ledger invariant — in
    particular ``sum(spent) <= B`` — and every stale-epoch commit is
    rejected without mutating spend."""
    budget = 100.0
    shards = ["s0", "s1"]
    ledger = EnergyLeaseLedger(budget, shards)
    live = []  # (shard, grant, epoch) — current-generation grants
    fenced = []  # grants orphaned by a crash (their epoch is stale)
    for op, index, value in ops:
        if op == "reserve":
            shard = shards[index % len(shards)]
            grant = ledger.reserve(shard, value)
            assert grant <= value + 1e-9
            if grant > 0.0:
                live.append((shard, grant, ledger.epoch_of(shard)))
        elif op == "commit" and live:
            shard, grant, epoch = live.pop(index % len(live))
            assert ledger.commit(shard, grant, grant * value, epoch=epoch) is True
        elif op == "release" and live:
            shard, grant, epoch = live.pop(index % len(live))
            ledger.release(shard, grant, epoch=epoch)
        elif op == "crash":
            # Worker dies; its generation is fenced and (implicitly) a
            # restarted generation takes over under the new epoch.
            shard = shards[index % len(shards)]
            ledger.bump_epoch(shard)
            fenced.extend(entry for entry in live if entry[0] == shard)
            live = [entry for entry in live if entry[0] != shard]
        elif op == "replay" and fenced:
            # A zombie of the dead generation replays its grant.
            shard, grant, epoch = fenced.pop(index % len(fenced))
            before = ledger.spent_of(shard)
            assert ledger.commit(shard, grant, grant * value, epoch=epoch) is False
            assert ledger.spent_of(shard) == before
        elif op == "rebalance":
            ledger.rebalance()
        assert ledger.audit() == [], (op, ledger.to_dict())
        assert ledger.total_spent <= budget + 1e-6


# -- torn journal writes ---------------------------------------------------------


def test_torn_journal_tail_recovers_to_committed_prefix(tmp_path):
    """The journal_torn_write fault model: a half-written frame at the
    tail is dropped on recovery and the audit certifies the prefix."""
    shard_dir = tmp_path / "shard-00"
    with JournalWriter(shard_dir, fsync="never") as journal:
        journal.append({"type": "solve", "trace_id": "aa", "energy": 3.0, "cum_energy": 3.0})
        journal.append({"type": "solve", "trace_id": "bb", "energy": 2.0, "cum_energy": 5.0})
        frame = encode_record(
            {"type": "solve", "trace_id": "cc", "energy": 1.0, "cum_energy": 6.0}
        )
        journal._fh.write(frame[: len(frame) // 2])
        journal._fh.flush()
    events = read_events(shard_dir)
    assert [e["trace_id"] for e in events if e["type"] == "solve"] == ["aa", "bb"]
    audit = audit_cluster(tmp_path, budget=10.0)
    assert audit.certified, audit.violations
    assert audit.total_spent == pytest.approx(5.0)


# -- supervision: SIGKILL, restart, journal replay -------------------------------


def test_supervisor_restarts_sigkilled_worker(tmp_path):
    doc = instance_to_dict(make_instance(n=5, m=2, seed=3))
    config = ClusterConfig(
        shards=2,
        budget=50_000.0,
        journal_root=str(tmp_path),
        max_batch=2,
        max_wait_seconds=0.005,
        fsync="never",
        supervise=True,
        heartbeat_seconds=0.05,
        max_restarts=2,
        retry_backoff_seconds=0.02,
    )
    manager = ClusterManager(config).start()
    try:
        first = manager.submit("approx", doc)
        assert first["status"] == 200
        victim = first["shard"]
        handle = manager._handles[victim]
        os.kill(handle.process.pid, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and not (handle.restarts >= 1 and handle.alive):
            time.sleep(0.05)
        assert handle.restarts >= 1 and handle.alive, "supervisor did not restart the shard"
        assert manager.ledger.epoch_of(victim) >= 1  # the dead generation is fenced
        results = [manager.submit("approx", doc) for _ in range(4)]
        assert all(r["status"] == 200 for r in results), results
        assert manager.health()["status"] == "ok"
        assert counter_total(manager.telemetry, "shard_restarts_total", shard=victim) >= 1.0
        assert manager.ledger.audit() == []
    finally:
        manager.stop()
    audit = audit_cluster(tmp_path, budget=config.budget)
    assert audit.certified, audit.violations


# -- the soak harness -------------------------------------------------------------


def test_campaign_certifies_under_faults(tmp_path):
    report = run_campaign(
        1,
        tmp_path,
        shards=2,
        requests=10,
        n_events=4,
        max_op=8,
        concurrency=4,
        request_timeout_seconds=15.0,
    )
    assert report.ok, report.violations
    assert report.requests == 10
    assert report.resolve_rate >= 0.99
    assert report.duplicate_results == 0
    assert report.planned_faults  # the seed planned a non-empty timeline
    assert report.total_spent <= report.budget + 1e-6
    # Planned timelines replay bit-for-bit from the seed alone.
    replanned = ChaosSchedule(1, ["shard-00", "shard-01"], n_events=4, max_op=8)
    assert [e.to_dict() for e in replanned.events] == report.planned_faults
    # Every fired fault is one of the planned events.
    planned_seqs = {e["seq"] for e in report.planned_faults}
    assert {e["seq"] for e in report.fired_faults} <= planned_seqs
    report_dict = report.to_dict()
    assert report_dict["ok"] is True
    assert report_dict["seed"] == 1


class _LossyManager:
    """A stand-in cluster: one request gets a 500, one submit raises."""

    def __init__(self, config, injector=None):
        self.ledger = EnergyLeaseLedger(config.budget, config.shard_ids())
        self.telemetry = MetricsRegistry()

    def start(self):
        return self

    def submit(self, scheduler, doc, *, trace_id, timeout):
        index = int(trace_id[8:], 16)
        if index == 3:
            return {"status": 500, "error": "internal error: reply dropped"}
        if index == 5:
            raise ConnectionResetError("worker pipe closed")
        return {"status": 200}

    def health(self):
        return {"restarts": {}}

    def stop(self):
        pass


def test_liveness_violation_names_each_unresolved_request(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.cluster.frontend.ClusterManager", _LossyManager)
    report = run_campaign(7, tmp_path, requests=8, n_events=1, max_op=4)
    (liveness,) = [v for v in report.violations if "accepted requests resolved" in v]
    assert report.statuses == {200: 6, 500: 1, -1: 1}
    assert "request 3 (trace 0000000700000003): 500 internal error: reply dropped" in liveness
    assert (
        "request 5 (trace 0000000700000005): raised ConnectionResetError: worker pipe closed"
        in liveness
    )


def test_schedule_covers_all_kinds():
    # Across a spread of seeds the generator exercises the whole taxonomy.
    seen = set()
    for seed in range(40):
        schedule = ChaosSchedule(seed, ["s0", "s1"], n_events=8, max_op=10)
        seen.update(e.kind for e in schedule.events)
    assert seen == set(FAULT_KINDS)
