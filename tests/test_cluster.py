"""Tests for repro.cluster: routing, leases, batching, workers, HTTP."""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import pty
import queue
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.chaos import REBALANCE_SITE, WORKER_SITE, ChaosEvent, ChaosSchedule, FaultInjector
from repro.cluster import (
    ClusterConfig,
    ClusterManager,
    ConsistentHashRouter,
    EnergyLeaseLedger,
    PendingResult,
    SolveService,
    SolveServiceConfig,
    WindowBatcher,
    audit_cluster,
    make_cluster_server,
    solve_payload,
)
from repro.cluster.bench import LoadStats, run_load, usable_cpu_count
from repro.cluster.worker import WorkerConfig, worker_main
from repro.core.serialization import instance_to_dict
from repro.durability import read_events
from repro.observe.tracing import trace_spans
from repro.resilience.fallback import FallbackChain
from repro.utils.errors import ValidationError

from conftest import make_instance, post_status_with_content_length

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

# -- router ---------------------------------------------------------------------


def test_router_is_deterministic():
    router = ConsistentHashRouter(["a", "b", "c"])
    keys = [f"key-{i}" for i in range(200)]
    first = [router.route(k) for k in keys]
    second = [ConsistentHashRouter(["a", "b", "c"]).route(k) for k in keys]
    assert first == second


def test_router_spreads_load():
    router = ConsistentHashRouter(["a", "b", "c", "d"], replicas=128)
    counts = router.distribution([f"key-{i}" for i in range(4000)])
    assert set(counts) == {"a", "b", "c", "d"}
    for count in counts.values():
        assert 400 <= count <= 2000  # no shard starves, none hoards


def test_router_failover_moves_only_dead_keys():
    router = ConsistentHashRouter(["a", "b", "c"])
    keys = [f"key-{i}" for i in range(500)]
    before = {k: router.route(k) for k in keys}
    after = {k: router.route(k, healthy={"a", "c"}) for k in keys}
    for key in keys:
        if before[key] != "b":
            assert after[key] == before[key]  # survivors keep their keys
        else:
            assert after[key] in {"a", "c"}


def test_router_rejects_bad_topologies():
    with pytest.raises(Exception):
        ConsistentHashRouter([])
    with pytest.raises(Exception):
        ConsistentHashRouter(["a", "a"])
    router = ConsistentHashRouter(["a"])
    with pytest.raises(KeyError):
        router.route("k", healthy=set())


# -- ledger ---------------------------------------------------------------------


def test_ledger_splits_budget_equally():
    ledger = EnergyLeaseLedger(100.0, ["s0", "s1", "s2", "s3"])
    assert all(abs(ledger.lease_of(s) - 25.0) < 1e-12 for s in ledger.shard_ids)


def test_ledger_reserve_clips_to_headroom():
    ledger = EnergyLeaseLedger(100.0, ["s0", "s1"])
    grant = ledger.reserve("s0", 80.0)
    assert grant == pytest.approx(50.0)  # clipped to the shard's lease
    assert ledger.reserve("s0", 10.0) == pytest.approx(0.0)  # exhausted
    ledger.commit("s0", grant, 30.0)
    assert ledger.spent_of("s0") == pytest.approx(30.0)
    # The unspent 20 J of the grant returned to the lease.
    assert ledger.reserve("s0", 100.0) == pytest.approx(20.0)


def test_ledger_rejects_overrun_commit():
    ledger = EnergyLeaseLedger(100.0, ["s0"])
    grant = ledger.reserve("s0", 10.0)
    with pytest.raises(ValidationError):
        ledger.commit("s0", grant, 11.0)


def test_ledger_release_returns_grant():
    ledger = EnergyLeaseLedger(100.0, ["s0", "s1"])
    grant = ledger.reserve("s0", 50.0)
    ledger.release("s0", grant)
    assert ledger.reserve("s0", 50.0) == pytest.approx(50.0)
    assert ledger.spent_of("s0") == 0.0


def test_ledger_rebalance_follows_demand():
    ledger = EnergyLeaseLedger(100.0, ["hot", "cold"], min_share=0.1)
    grant = ledger.reserve("hot", 50.0)
    ledger.commit("hot", grant, 50.0)  # hot burned its whole lease
    leases = ledger.rebalance()
    # All demand came from `hot`, so it gets the flexible pool on top of
    # its committed floor; `cold` keeps only its min share.
    assert leases["hot"] > 85.0
    assert leases["cold"] < 15.0
    assert sum(leases.values()) <= 100.0 + 1e-9
    assert ledger.audit() == []


def test_ledger_unbounded_mode_grants_everything():
    ledger = EnergyLeaseLedger(None, ["s0"])
    assert ledger.reserve("s0", 1e9) == 1e9
    ledger.commit("s0", 1e9, 1e9)
    assert ledger.audit() == []


def test_ledger_unknown_shard():
    ledger = EnergyLeaseLedger(10.0, ["s0"])
    with pytest.raises(ValidationError):
        ledger.reserve("nope", 1.0)


# -- batcher --------------------------------------------------------------------


def test_batcher_coalesces_up_to_max_batch():
    windows = []
    done = threading.Event()

    def dispatch(batch):
        windows.append(len(batch))
        for _, pending in batch:
            pending.resolve("ok")
        if sum(windows) >= 6:
            done.set()

    batcher = WindowBatcher(dispatch, max_batch=3, max_wait_seconds=0.5)
    pendings = [batcher.submit(i) for i in range(6)]
    assert all(p.wait(5.0) == "ok" for p in pendings)
    done.wait(5.0)
    batcher.close()
    assert max(windows) <= 3
    assert sum(windows) == 6


def test_batcher_flushes_on_max_wait():
    windows = []

    def dispatch(batch):
        windows.append([item for item, _ in batch])
        for _, pending in batch:
            pending.resolve("ok")

    batcher = WindowBatcher(dispatch, max_batch=100, max_wait_seconds=0.02)
    pending = batcher.submit("lonely")
    assert pending.wait(5.0) == "ok"  # did not wait for 99 peers
    batcher.close()
    assert windows == [["lonely"]]


def test_batcher_dispatch_failure_fails_pendings():
    def dispatch(batch):
        raise RuntimeError("worker exploded")

    batcher = WindowBatcher(dispatch, max_batch=4, max_wait_seconds=0.01)
    pending = batcher.submit("x")
    with pytest.raises(RuntimeError, match="worker exploded"):
        pending.wait(5.0)
    batcher.close()
    with pytest.raises(ValidationError):
        batcher.submit("y")


def test_pending_result_timeout():
    pending = PendingResult()
    with pytest.raises(TimeoutError):
        pending.wait(0.01)
    assert not pending.done


def test_pending_done_callback_runs_once_outside_the_lock():
    pending = PendingResult()
    calls = []

    def callback(p):
        # Runs after the settle, with the pending's lock free.
        unlocked = p._lock.acquire(blocking=False)
        try:
            calls.append((p, p.done, unlocked))
        finally:
            if unlocked:
                p._lock.release()

    pending.add_done_callback(callback)
    assert calls == []
    assert pending.resolve("won") is True
    assert pending.resolve("late") is False
    assert pending.fail(RuntimeError("later")) is False
    assert calls == [(pending, True, True)]
    late = []
    pending.add_done_callback(late.append)  # already settled: runs at once
    assert late == [pending]
    assert len(calls) == 1


def test_pending_done_callback_runs_on_fail():
    pending = PendingResult()
    calls = []
    pending.add_done_callback(calls.append)
    assert pending.fail(RuntimeError("boom")) is True
    assert pending.resolve("late") is False
    assert calls == [pending]


def _recording_batcher(max_wait_seconds=30.0, settle=False, **kwargs):
    """A batcher whose dispatched windows land on a queue, settled or not."""
    windows = queue.Queue()

    def dispatch(batch):
        if settle:
            for item, pending in batch:
                pending.resolve(item)
        windows.put(batch)

    kwargs.setdefault("max_batch", 8)
    return WindowBatcher(dispatch, max_wait_seconds=max_wait_seconds, **kwargs), windows


def _wait_until_parked(batcher, timeout=30.0):
    """Block until the batcher's loop waits on its condition variable.

    CPython's ``threading.Condition`` lists its sleeping threads in
    ``_waiters``; ``notify`` removes them, so a non-empty list seen under
    the lock means the loop re-checked its predicates and chose to wait.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with batcher._lock:
            if batcher._wakeup._waiters:
                return
        time.sleep(0.001)
    raise AssertionError("batcher loop never parked")


def test_batcher_idle_shard_dispatches_a_lone_submit_at_once():
    batcher, windows = _recording_batcher(settle=True)
    try:
        pending = batcher.submit("lonely")
        # The 30 s timer is only a cap while the shard is busy.
        assert pending.wait(5.0) == "lonely"
        assert [item for item, _ in windows.get(timeout=5.0)] == ["lonely"]
    finally:
        batcher.close(drain=False)


def test_batcher_coalesces_arrivals_while_a_window_is_in_flight():
    batcher, windows = _recording_batcher()
    try:
        batcher.submit("first")
        first = windows.get(timeout=5.0)
        for item in ("a", "b", "c"):
            batcher.submit(item)
        _wait_until_parked(batcher)
        assert batcher.depth == 3  # held behind the unsettled window
        first[0][1].resolve("done")  # the settle alone must wake the loop
        second = windows.get(timeout=5.0)
        assert [item for item, _ in second] == ["a", "b", "c"]
        assert batcher.depth == 0
    finally:
        batcher.close(drain=False)


def test_batcher_close_hands_queued_items_to_on_undispatched():
    batcher, windows = _recording_batcher()
    batcher.submit("in flight")
    windows.get(timeout=5.0)
    queued = [batcher.submit(item) for item in ("a", "b")]
    _wait_until_parked(batcher)
    handed = []
    batcher.close(drain=False, on_undispatched=lambda item, pending: handed.append((item, pending)))
    assert [item for item, _ in handed] == ["a", "b"]
    assert [pending for _, pending in handed] == queued
    assert not any(pending.done for pending in queued)  # the callback owns them now


def test_shard_death_retries_requests_queued_behind_its_window():
    # A request queued on a shard when its worker dies is re-routed like
    # the dead window's orphans: it must not fail with "batcher closed".
    # No workers are spawned; only the control loop runs, to fire the retry.
    manager = ClusterManager(ClusterConfig(shards=2, supervise=True))
    handle = manager._handles["shard-00"]
    survivor = manager._handles["shard-01"]
    batcher, windows = _recording_batcher()
    survivor_batcher, survivor_windows = _recording_batcher(settle=True)
    handle.batcher, handle.alive = batcher, True
    survivor.batcher, survivor.alive = survivor_batcher, True
    manager._start_control()
    try:
        batcher.submit({"trace_id": "t-in-flight"})
        windows.get(timeout=5.0)
        item = {"trace_id": "t-queued"}
        pending = batcher.submit(item)
        _wait_until_parked(batcher)
        manager._shard_died(handle)
        assert pending.wait(5.0) is item  # solved by the surviving shard
        assert item["_attempts"] == 1
    finally:
        manager._stop_control()
        survivor_batcher.close(drain=False)


def test_batcher_wait_cap_releases_the_next_window_behind_a_stuck_one():
    batcher, windows = _recording_batcher(max_wait_seconds=0.05)
    try:
        batcher.submit("never settled")
        windows.get(timeout=5.0)
        batcher.submit("next")
        assert [item for item, _ in windows.get(timeout=5.0)] == ["next"]
    finally:
        batcher.close(drain=False)


def test_batcher_gate_frees_when_dispatch_raises():
    calls = []

    def dispatch(batch):
        calls.append(len(batch))
        if len(calls) == 1:
            raise RuntimeError("send failed")
        for item, pending in batch:
            pending.resolve(item)

    batcher = WindowBatcher(dispatch, max_batch=8, max_wait_seconds=30.0)
    try:
        with pytest.raises(RuntimeError, match="send failed"):
            batcher.submit("x").wait(5.0)
        assert batcher.submit("y").wait(5.0) == "y"
    finally:
        batcher.close(drain=False)


def test_batcher_gate_frees_when_dispatch_sheds_the_whole_window():
    batcher, _ = _recording_batcher(settle=True)
    try:
        assert batcher.submit("shed").wait(5.0) == "shed"
        assert batcher.submit("next").wait(5.0) == "next"
    finally:
        batcher.close(drain=False)


def test_batcher_gate_frees_when_the_pending_settles_elsewhere():
    batcher, windows = _recording_batcher()
    try:
        shared = batcher.submit("primary")
        windows.get(timeout=5.0)
        _wait_until_parked(batcher)
        shared.resolve("settled outside the window, as a sweep or shed does")
        batcher.submit("next")
        assert [item for item, _ in windows.get(timeout=5.0)] == ["next"]
    finally:
        batcher.close(drain=False)


def test_batcher_gate_does_not_leak_under_concurrent_settles():
    settles = queue.Queue()

    def dispatch(batch):
        settles.put(batch)

    def settler():
        while True:
            batch = settles.get()
            if batch is None:
                return
            for item, pending in batch:
                pending.resolve(item)

    threads = [threading.Thread(target=settler) for _ in range(2)]
    for thread in threads:
        thread.start()
    batcher = WindowBatcher(dispatch, max_batch=4, max_wait_seconds=30.0)
    try:
        pendings = [batcher.submit(i) for i in range(200)]
        assert sorted(p.wait(30.0) for p in pendings) == list(range(200))
    finally:
        # Done-callbacks run on the settling threads: join them before
        # reading the gate.
        for _ in threads:
            settles.put(None)
        for thread in threads:
            thread.join(timeout=30.0)
        batcher.close(drain=False)
    assert batcher._in_flight == 0


# -- solve service (the path shared with repro.server) --------------------------


def test_solve_service_matches_direct_solve():
    instance = make_instance(n=6, m=2, seed=3)
    service = SolveService()
    result = service.solve_named("approx", instance)
    payload = solve_payload("approx", result, instance, trace_id="abcd")
    assert payload["scheduler"] == "approx"
    assert payload["trace_id"] == "abcd"
    assert payload["feasible"] is True
    assert payload["metrics"]["energy_joules"] <= instance.budget * (1 + 1e-9)


def test_solve_service_fallback_builds_chain():
    service = SolveService(SolveServiceConfig(fallback=True, solver_timeout=5.0))
    assert isinstance(service.build_scheduler("approx"), FallbackChain)


def test_worker_answers_window_stats_and_shutdown_and_errors_anything_else():
    requests, replies = queue.Queue(), queue.Queue()
    for batch_id, op in enumerate(("profile", "cancel", "stats"), start=1):
        requests.put({"op": op, "batch_id": batch_id})
    requests.put(None)
    requests.put({"op": "shutdown", "batch_id": 4})
    worker_main(WorkerConfig("shard-00"), requests, replies)
    answers = [replies.get(timeout=5.0) for _ in range(5)]
    assert [(a["op"], a["batch_id"]) for a in answers] == [
        ("error", 1),
        ("error", 2),
        ("stats", 3),
        ("error", None),
        ("shutdown_ack", 4),
    ]
    assert answers[0]["error"] == "unknown op 'profile'"


def test_worker_answers_envelopes_without_batch_id():
    requests, replies = queue.Queue(), queue.Queue()
    for op in ("stats", "window", "shutdown"):
        requests.put({"op": op})
    worker_main(WorkerConfig("shard-00"), requests, replies)
    answers = [replies.get(timeout=5.0) for _ in range(3)]
    assert [(a["op"], a["batch_id"]) for a in answers] == [
        ("stats", None),
        ("window_done", None),
        ("shutdown_ack", None),
    ]
    assert answers[0]["shard"] == "shard-00" and answers[1]["results"] == []


# -- the cluster end to end -----------------------------------------------------


@pytest.fixture(scope="module")
def cluster_env(tmp_path_factory):
    """A running 2-shard cluster with journals + budget, behind HTTP."""
    journal_root = tmp_path_factory.mktemp("ledgers")
    config = ClusterConfig(
        shards=2,
        budget=50_000.0,
        journal_root=str(journal_root),
        max_batch=4,
        max_wait_seconds=0.005,
        fsync="never",
    )
    manager = ClusterManager(config).start()
    server = make_cluster_server(manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    instance_doc = instance_to_dict(make_instance(n=6, m=2, seed=7))
    yield manager, base, instance_doc, journal_root
    server.shutdown()
    server.server_close()
    manager.stop()


def _post_solve(base, doc, trace_id=None, scheduler="approx"):
    request = urllib.request.Request(
        f"{base}/solve?scheduler={scheduler}", data=json.dumps(doc).encode(), method="POST"
    )
    if trace_id is not None:
        request.add_header("X-Repro-Trace-Id", trace_id)
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, dict(response.headers), json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


def _get(base, path):
    try:
        with urllib.request.urlopen(f"{base}{path}") as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def test_cluster_serves_solves(cluster_env):
    _, base, doc, _ = cluster_env
    status, headers, payload = _post_solve(base, doc)
    assert status == 200
    assert payload["feasible"] is True
    assert payload["shard"] in ("shard-00", "shard-01")
    assert "schedule" in payload and "metrics" in payload


def test_cluster_health_and_schedulers(cluster_env):
    _, base, _, _ = cluster_env
    status, body = _get(base, "/health")
    assert status == 200
    health = json.loads(body)
    assert health["status"] == "ok"
    assert set(health["shards"]) == {"shard-00", "shard-01"}
    assert health["ledger"]["budget"] == 50_000.0
    status, body = _get(base, "/schedulers")
    assert status == 200 and "approx" in json.loads(body)["schedulers"]


def _series_counts(text, name):
    """``{shard: count}`` of one shard-labelled histogram in Prometheus text."""
    pattern = re.compile(rf'^{name}_count{{shard="([^"]+)"}} (\d+)$', re.MULTILINE)
    return {shard: int(count) for shard, count in pattern.findall(text)}


def test_cluster_metrics_aggregate_with_shard_labels(cluster_env):
    _, base, doc, _ = cluster_env
    _, body = _get(base, "/metrics")
    before = sum(_series_counts(body.decode(), "frontend_batcher_wait_seconds").values())
    statuses = [_post_solve(base, doc)[0] for _ in range(3)]
    assert statuses == [200, 200, 200]
    status, body = _get(base, "/metrics")
    assert status == 200
    text = body.decode()
    assert "frontend_requests_total" in text
    assert 'shard="shard-00"' in text or 'shard="shard-01"' in text
    # Every served request observed its batcher wait once, on its shard.
    waits = _series_counts(text, "frontend_batcher_wait_seconds")
    assert set(waits) <= {"shard-00", "shard-01"} and waits
    assert sum(waits.values()) - before == 3


def test_cluster_rejects_garbage(cluster_env):
    _, base, _, _ = cluster_env
    request = urllib.request.Request(f"{base}/solve", data=b"{not json", method="POST")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request)
    assert excinfo.value.code == 400
    status, _ = _get(base, "/nope")
    assert status == 404


def test_cluster_rejects_negative_content_length(cluster_env):
    # rfile.read(-1) would read to EOF: the handler must refuse the length
    # instead of waiting for a client that never hangs up.
    _, base, _, _ = cluster_env
    port = int(base.rsplit(":", 1)[1])
    assert post_status_with_content_length(port, -1) == 400


def test_cluster_times_out_short_body(cluster_env):
    # A body shorter than its Content-Length must time out on the
    # handler's socket, not wait for the client to hang up.
    _, base, _, _ = cluster_env
    port = int(base.rsplit(":", 1)[1])
    assert post_status_with_content_length(port, 10) == 408


def test_trace_id_spans_frontend_worker_and_journal(cluster_env):
    """Satellite: one trace id correlates the front-end span, the worker's
    solve span (across the process boundary) and the shard's journal record."""
    manager, base, doc, journal_root = cluster_env
    trace_id = "feedface0001"
    status, headers, payload = _post_solve(base, doc, trace_id=trace_id)
    assert status == 200
    assert headers.get("X-Repro-Trace-Id") == trace_id
    assert payload["trace_id"] == trace_id

    frontend_spans = trace_spans(manager.telemetry, trace_id)
    assert any(s["name"] == "frontend.request" for s in frontend_spans)

    shard = payload["shard"]
    stats = manager.shard_stats()[shard]
    worker_spans = trace_spans(stats["telemetry"], trace_id)
    assert any(s["name"] == "worker.solve" for s in worker_spans)

    records = [
        e
        for e in read_events(journal_root / shard)
        if e.get("type") == "solve" and e.get("trace_id") == trace_id
    ]
    assert len(records) == 1
    assert records[0]["energy"] == pytest.approx(payload["metrics"]["energy_joules"])

    # The whole trace is also served over HTTP, merged across processes.
    status, body = _get(base, f"/trace/{trace_id}")
    assert status == 200
    names = {e["name"] for e in json.loads(body)["traceEvents"]}
    assert {"frontend.request", "worker.solve"} <= names


def test_cluster_audit_certifies_global_budget(cluster_env):
    manager, base, doc, journal_root = cluster_env
    for _ in range(4):
        _post_solve(base, doc)
    audit = audit_cluster(journal_root, budget=manager.config.budget)
    assert audit.certified, audit.violations
    assert audit.total_spent <= manager.config.budget + 1e-6
    assert manager.ledger.audit() == []


def test_queue_delay_exemplar_links_to_trace(cluster_env):
    """Satellite: the p99 queue-delay bucket carries an exemplar whose
    trace id resolves to a full timeline via ``/trace/<id>``."""
    _, base, doc, _ = cluster_env
    for k in range(6):
        _post_solve(base, doc, trace_id=f"exemplar{k:04d}")
    status, body = _get(base, "/metrics")
    assert status == 200
    pattern = re.compile(
        r'frontend_queue_delay_seconds_bucket\{[^}]*\}\s+\d+'
        r'\s+#\s+\{trace_id="([^"]+)"\}\s+[0-9.eE+-]+'
    )
    match = pattern.search(body.decode())
    assert match is not None, "no exemplar on any queue-delay bucket line"
    trace_id = match.group(1)
    status, body = _get(base, f"/trace/{trace_id}")
    assert status == 200
    names = {e["name"] for e in json.loads(body)["traceEvents"]}
    assert "frontend.request" in names


def test_debug_profile_merges_worker_profiles(cluster_env):
    """``/debug/profile`` serves per-shard and merged phase breakdowns."""
    _, base, doc, _ = cluster_env
    for _ in range(2):
        _post_solve(base, doc)
    status, body = _get(base, "/debug/profile")
    assert status == 200
    document = json.loads(body)
    assert set(document["shards"]) == {"shard-00", "shard-01"}
    for shard_doc in document["shards"].values():
        assert shard_doc is not None
        assert "phases" in shard_doc
    merged = document["merged"]
    assert merged["hottest"], "no phases in the hottest-phase ranking"
    # Worker solve spans and the front-end's own spans both fold into
    # the merged phase breakdown.
    assert "worker.solve" in merged["phases"]
    assert "frontend.request" in merged["phases"]


def test_repro_top_renders_one_frame_on_a_pty(cluster_env):
    """Tentpole: ``repro top --once`` paints a full frame on a real pty."""
    _, base, doc, _ = cluster_env
    _post_solve(base, doc)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    master, follower = pty.openpty()
    try:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "top", "--once", base],
            stdin=follower, stdout=follower, stderr=follower,
            env=env, close_fds=True,
        )
        os.close(follower)
        follower = -1
        chunks = []
        while True:
            try:
                chunk = os.read(master, 4096)
            except OSError:  # EIO: child closed its side (Linux pty EOF)
                break
            if not chunk:
                break
            chunks.append(chunk)
        assert process.wait(timeout=30) == 0
    finally:
        if follower >= 0:
            os.close(follower)
        os.close(master)
    frame = b"".join(chunks).decode(errors="replace")
    assert "repro top" in frame and base in frame
    assert "SHARD" in frame and "shard-00" in frame and "shard-01" in frame
    assert "budget: 50000.0 J" in frame
    assert "HOTTEST PHASES" in frame
    assert "\x1b[2J" not in frame  # --once renders without escape codes


def test_client_errors_do_not_trip_the_shard_breaker():
    # A request the shard cannot serve as asked (here: an unknown
    # scheduler) answers 400 before admission, so a run of them must not
    # open the circuit breaker that guards the solver.
    doc = instance_to_dict(make_instance(n=4, m=2, seed=11))
    with ClusterManager(ClusterConfig(shards=1)) as manager:
        for _ in range(5):
            assert manager.submit("no-such-method", doc)["status"] == 400
        result = manager.submit("approx", doc)
        assert result["status"] == 200, result


def test_malformed_instance_documents_do_not_kill_the_shard():
    # The front-end forwards the document unparsed, so the shard's parser
    # meets a missing field (KeyError) or a wrongly typed one (ValueError);
    # each must answer 400 and leave the worker serving.
    doc = instance_to_dict(make_instance(n=4, m=2, seed=11))
    missing = {"format": "repro.instance", "version": 1}
    mistyped = {**doc, "budget": "x"}
    with ClusterManager(ClusterConfig(shards=1, supervise=False)) as manager:
        for bad in (missing, mistyped):
            result = manager.submit("approx", bad)
            assert result["status"] == 400, result
        result = manager.submit("approx", doc)
        assert result["status"] == 200, result
        assert manager.healthy_shards() == {"shard-00"}


@contextlib.contextmanager
def _worker_stopped(manager, shard="shard-00"):
    """Hold a shard's worker process stopped for the block (SIGSTOP/SIGCONT).

    Windows sent meanwhile stay in flight, so later requests queue at the
    shard's batcher for as long as the test needs, however fast it solves.
    """
    pid = manager._handles[shard].process.pid
    os.kill(pid, signal.SIGSTOP)
    try:
        yield
    finally:
        os.kill(pid, signal.SIGCONT)


def _wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def test_unreadable_budget_fails_only_its_own_request_in_a_budgeted_window():
    # With a global budget the front-end reads each request's budget to
    # size the window's lease before any shard has parsed the document.
    # A budget it cannot read must cost only its own request a 400.
    doc = instance_to_dict(make_instance(n=4, m=2, seed=11))
    window = [doc, {**doc, "budget": "x"}, {**doc, "budget": float("nan")}, [doc], doc]
    config = ClusterConfig(
        shards=1, budget=1e12, max_batch=8, max_wait_seconds=30.0, supervise=False
    )
    with ClusterManager(config) as manager, ThreadPoolExecutor(max_workers=6) as pool:
        handle = manager._handles["shard-00"]
        with _worker_stopped(manager):
            first = pool.submit(manager.submit, "approx", doc)
            _wait_for(lambda: bool(handle.inflight))
            futures = [pool.submit(manager.submit, "approx", d) for d in window]
            _wait_for(lambda: handle.batcher.depth == len(window))  # one window, behind the first
        assert first.result(timeout=60)["status"] == 200
        results = [f.result(timeout=60) for f in futures]
    assert [r["status"] for r in results] == [200, 400, 400, 400, 200], results


def test_cluster_queue_bound_answers_queue_full():
    # The shard's batcher bounds its queue: with one request in flight and
    # one queued, the next is refused 503 queue_full with a Retry-After.
    doc = instance_to_dict(make_instance(n=4, m=2, seed=11))
    config = ClusterConfig(shards=1, max_queue_per_shard=1, max_wait_seconds=30.0, supervise=False)
    with ClusterManager(config) as manager, ThreadPoolExecutor(max_workers=2) as pool:
        server = make_cluster_server(manager)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        handle = manager._handles["shard-00"]
        try:
            with _worker_stopped(manager):
                in_flight = pool.submit(manager.submit, "approx", doc)
                _wait_for(lambda: bool(handle.inflight))
                queued = pool.submit(manager.submit, "approx", doc)
                _wait_for(lambda: handle.batcher.depth == 1)
                status, headers, body = _post_solve(base, doc)
            assert status == 503 and body["error"] == "queue_full", body
            assert headers["Retry-After"] == "1"
            assert in_flight.result(timeout=60)["status"] == 200
            assert queued.result(timeout=60)["status"] == 200
        finally:
            server.shutdown()
            server.server_close()


def test_solve_step_answers_500_when_the_journal_fails():
    from repro.cluster.solve_service import SolveService, SolveStep
    from repro.resilience.admission import AdmissionController
    from repro.telemetry import MetricsRegistry

    class FullDisk:
        def record_solve(self, *args):
            raise OSError("disk full")

    step = SolveStep(SolveService(), AdmissionController(), MetricsRegistry(), journal=FullDisk())
    result = step.run("approx", instance_to_dict(make_instance(n=4, m=2, seed=11)))
    assert result["status"] == 500 and "disk full" in result["error"], result
    assert "detail" in result


def test_cluster_survives_worker_death():
    """Killing one worker mid-run: in-flight requests answer 503, later
    requests are served by the survivor, /health reports degradation.

    ``supervise=False`` — this test asserts the *unsupervised* contract
    (the dead shard stays dead); the supervised restart path is covered
    in ``tests/test_chaos.py``."""
    doc = instance_to_dict(make_instance(n=5, m=2, seed=11))
    config = ClusterConfig(shards=2, max_batch=4, max_wait_seconds=0.005, supervise=False)
    manager = ClusterManager(config).start()
    try:
        first = manager.submit("approx", doc)
        assert first["status"] == 200
        victim = first["shard"]
        manager._handles[victim].process.terminate()
        deadline = time.monotonic() + 10.0
        while victim in manager.healthy_shards() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert manager.healthy_shards() == {s for s in manager._handles if s != victim}
        results = [manager.submit("approx", doc) for _ in range(4)]
        assert all(r["status"] == 200 for r in results)
        survivor = next(iter(manager.healthy_shards()))
        assert all(r["shard"] == survivor for r in results)
        assert manager.health()["status"] == "degraded"
    finally:
        manager.stop()


# -- the control loop: deaths, retries, sweeps, rebalances ------------------------


def _trace_ids_routed_to(manager, shard, count):
    tids = (f"t-{i:04d}" for i in itertools.count())
    return list(itertools.islice((t for t in tids if manager.router.route(t) == shard), count))


def test_retry_after_shard_death_starts_no_thread_per_request(monkeypatch):
    # 16 requests orphaned by one death (1 in flight, 15 queued behind it)
    # retry on the survivor as entries of the control loop: no OS timer
    # thread each.  max_restarts=0 keeps the victim down.
    timers = []

    class CountingTimer(threading.Timer):
        def __init__(self, *args, **kwargs):
            timers.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(threading, "Timer", CountingTimer)
    doc = instance_to_dict(make_instance(n=4, m=2, seed=11))
    config = ClusterConfig(
        shards=2,
        max_batch=16,
        max_wait_seconds=30.0,
        heartbeat_seconds=0.05,
        max_restarts=0,
        retry_backoff_seconds=0.02,
    )
    manager = ClusterManager(config).start()
    try:
        handle = manager._handles["shard-00"]
        first, *queued = _trace_ids_routed_to(manager, "shard-00", 16)
        with ThreadPoolExecutor(max_workers=16) as pool:
            os.kill(handle.process.pid, signal.SIGSTOP)
            try:
                futures = [pool.submit(manager.submit, "approx", doc, trace_id=first)]
                _wait_for(lambda: bool(handle.inflight))
                futures += [pool.submit(manager.submit, "approx", doc, trace_id=t) for t in queued]
                _wait_for(lambda: handle.batcher.depth == len(queued))
            finally:
                os.kill(handle.process.pid, signal.SIGKILL)
            results = [f.result(timeout=60) for f in futures]
        assert [(r["status"], r["shard"]) for r in results] == [(200, "shard-01")] * 16, results
        assert manager.telemetry.counter("frontend_retries_total").value == 16
        assert len(timers) == 0
    finally:
        manager.stop()


def test_sweep_commits_the_grant_of_a_window_whose_reply_was_dropped():
    # The worker solves the first window but drops its reply: the control
    # loop's stale-window sweep answers it 503 and commits the grant in
    # full (the spend may be journalled), so no reservation leaks.
    doc = instance_to_dict(make_instance(n=4, m=2, seed=11))
    drop = ChaosEvent(seq=0, kind="reply_drop", site=WORKER_SITE, shard="shard-00", at_op=1)
    config = ClusterConfig(
        shards=1, budget=1e9, supervise=False, request_timeout_seconds=1.0, heartbeat_seconds=0.05
    )
    manager = ClusterManager(config, injector=FaultInjector(ChaosSchedule.from_events([drop])))
    before = set(threading.enumerate())
    manager.start()
    try:
        started = {t.name for t in set(threading.enumerate()) - before}
        assert started == {"repro-control", "repro-dispatch-shard-00", "repro-window_shard_00"}
        result = manager.submit("approx", doc, timeout=30.0)
        assert result["status"] == 503 and "never answered" in result["error"], result
        assert manager.telemetry.counter("frontend_swept_windows_total", shard="shard-00").value == 1
        row = manager.ledger.to_dict()["shards"]["shard-00"]
        assert row["spent"] == float(doc["budget"]) and row["reserved"] == 0.0, row
        assert manager.ledger.audit() == []
    finally:
        manager.stop()


def test_clock_skew_fires_on_the_second_rebalance_cycle_not_heartbeat():
    # Chaos timelines replay only if clock_skew counts rebalance cycles:
    # the heartbeat runs ten times as often in the same loop.
    skew = ChaosEvent(seq=0, kind="clock_skew", site=REBALANCE_SITE, shard=None, at_op=2, magnitude=0.05)
    injector = FaultInjector(ChaosSchedule.from_events([skew]))
    config = ClusterConfig(shards=1, budget=1e9, heartbeat_seconds=0.02, rebalance_seconds=0.2)
    manager = ClusterManager(config, injector=injector)
    beats, cycles = [], []
    heartbeat, rebalance = manager._heartbeat, manager.ledger.rebalance
    manager._heartbeat = lambda: (beats.append(1), heartbeat())
    manager.ledger.rebalance = lambda: (cycles.append((len(beats), len(injector.fired))), rebalance())[1]
    with manager:
        _wait_for(lambda: len(cycles) >= 2)
    assert cycles[0][0] >= 2 and [fired for _, fired in cycles[:2]] == [0, 1], cycles
    assert injector.fired == [skew]


# -- load generator -------------------------------------------------------------


def test_run_load_closed_loop_counts_everything():
    calls = []

    def submit():
        calls.append(1)
        time.sleep(0.001)
        return 200

    stats = run_load(submit, duration=0.2, concurrency=2).to_dict()
    assert stats["requests"] == len(calls)
    assert stats["ok"] == stats["requests"]
    assert stats["throughput_rps"] > 0
    assert stats["latency_s"]["p50"] <= stats["latency_s"]["p99"]


def test_load_stats_percentiles():
    stats = LoadStats([0.1 * i for i in range(1, 11)], [200] * 9 + [503], 1.0).to_dict()
    assert stats["ok"] == 9 and stats["errors"] == 1
    assert stats["by_status"] == {"200": 9, "503": 1}
    assert stats["latency_s"]["p50"] == pytest.approx(0.6)
    assert stats["latency_s"]["p99"] == pytest.approx(1.0)


def test_usable_cpu_count_reads_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert usable_cpu_count() == 1  # a ``taskset -c 0`` run, on an 8-CPU machine


def test_usable_cpu_count_falls_back_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert usable_cpu_count() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cpu_count() == 1
