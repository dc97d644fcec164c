"""Tests for repro.overload: signals, admission, shedding, batching."""

from __future__ import annotations

import threading

import pytest

from repro.cluster import ClusterConfig, ClusterManager, QueueFullError, WindowBatcher
from repro.overload import AdmitRateController, QueueDelaySignal, normalize_priority
from repro.resilience.admission import AdmissionController

from conftest import make_instance


class FakeClock:
    """A deterministic, manually-advanced monotonic clock."""

    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        self.now += seconds
        return self.now


# -- QueueDelaySignal ------------------------------------------------------------


def test_signal_ewma_and_tail():
    clock = FakeClock()
    signal = QueueDelaySignal(clock=clock)
    snap = signal.snapshot()
    assert snap["sojourn_ewma"] is None and snap["sojourn_p99"] is None
    signal.observe_sojourn(1.0)
    signal.observe_sojourn(3.0)
    snap = signal.snapshot()
    assert snap["sojourn_ewma"] == pytest.approx(1.4)  # 0.2*3 + 0.8*1
    assert snap["sojourn_p99"] == 3.0
    assert snap["sojourn_floor"] == 1.0
    signal.observe_service(0.25)
    signal.observe_service(0.75)
    assert signal.service_floor() == 0.25
    snap = signal.snapshot()
    assert snap["service_mean"] == pytest.approx(0.5)
    assert snap["samples"] == 2 and snap["service_floor"] == 0.25


def test_signal_forgets_stale_storm_samples():
    """The p99 must decay with the queue: old spike sojourns expire."""
    clock = FakeClock()
    signal = QueueDelaySignal(max_age_seconds=2.0, clock=clock)
    signal.observe_sojourn(9.0)  # storm-era tail
    clock.advance(1.0)
    signal.observe_sojourn(0.01)  # queue has drained
    assert signal.snapshot()["sojourn_p99"] == 9.0  # storm sample still fresh
    clock.advance(1.5)  # storm sample is now 2.5 s old, fresh one 1.5 s
    assert signal.snapshot()["sojourn_p99"] == 0.01
    clock.advance(1.0)  # everything stale
    assert signal.snapshot()["sojourn_p99"] is None


def test_signal_ignores_nonfinite_and_clamps_negative():
    signal = QueueDelaySignal(clock=FakeClock())
    signal.observe_sojourn(float("nan"))
    signal.observe_sojourn(float("inf"))
    assert signal.snapshot()["samples"] == 0
    signal.observe_sojourn(-1.0)
    assert signal.snapshot()["sojourn_floor"] == 0.0


# -- AdmitRateController ---------------------------------------------------------


def test_admit_rate_cuts_on_sustained_delay_only():
    """CoDel semantics: one fresh fast sample vetoes the cut."""
    clock = FakeClock()
    ctl = AdmitRateController(
        target_delay_seconds=0.5, interval_seconds=1.0, decrease_factor=0.5, clock=clock
    )
    ctl.observe(2.0)  # stale backlog settling slowly ...
    clock.advance(1.1)
    ctl.observe(0.01)  # ... but a fresh request was served fast
    assert ctl.rate == 1.0  # interval minimum below target: no cut
    clock.advance(1.1)
    ctl.observe(2.0)  # an interval whose minimum exceeds the target
    assert ctl.rate == pytest.approx(0.5)
    clock.advance(1.1)
    ctl.observe(2.0)
    assert ctl.rate == pytest.approx(0.25)


def test_admit_rate_respects_floor_and_recovers_multiplicatively():
    clock = FakeClock()
    ctl = AdmitRateController(
        target_delay_seconds=0.5,
        interval_seconds=1.0,
        decrease_factor=0.1,
        increase_step=0.1,
        min_rate=0.05,
        clock=clock,
    )
    for _ in range(5):
        clock.advance(1.1)
        ctl.observe(5.0)
    assert ctl.rate == 0.05  # clamped at the floor
    clock.advance(1.1)
    ctl.observe(0.01)  # clearly healthy (< target/2): multiplicative regrowth
    assert ctl.rate == pytest.approx(0.15)  # max(0.05+0.1, 0.05*1.5)
    previous = ctl.rate
    clock.advance(1.1)
    ctl.observe(0.4)  # healthy but not clearly: additive only
    assert ctl.rate == pytest.approx(previous + 0.1)


def test_admit_credit_fractions_match_effective_rate_exactly():
    clock = FakeClock()
    ctl = AdmitRateController(interval_seconds=1.0, decrease_factor=0.25, clock=clock)
    clock.advance(1.1)
    ctl.observe(10.0)  # one cut: rate 0.25
    assert ctl.rate == pytest.approx(0.25)
    admitted = {cls: 0 for cls in ("interactive", "standard", "best_effort")}
    trials = 400
    for _ in range(trials):
        for cls in admitted:
            if ctl.admit(cls):
                admitted[cls] += 1
    # rate ** exponent: 0.25**0.5 = 0.5, 0.25**1 = 0.25, 0.25**2 = 0.0625 —
    # the deterministic credit accumulator hits these fractions to within
    # the one admission its starting credit is worth.
    assert abs(admitted["interactive"] - trials * 0.5) <= 1
    assert abs(admitted["standard"] - trials * 0.25) <= 1
    assert abs(admitted["best_effort"] - trials * 0.0625) <= 1
    assert ctl.effective_rate("interactive") == pytest.approx(0.5)


def test_admit_full_rate_admits_everything():
    ctl = AdmitRateController(clock=FakeClock())
    assert all(ctl.admit(cls) for cls in ("interactive", "standard", "best_effort", None))
    snap = ctl.snapshot()
    assert snap["rate"] == 1.0 and snap["decreases"] == 0


def test_normalize_priority():
    assert normalize_priority("interactive") == "interactive"
    assert normalize_priority(None) == "standard"
    assert normalize_priority("VIP") == "standard"


# -- the deadline check ---------------------------------------------------------


def test_shedder_without_samples_sheds_only_past_deadline():
    signal = QueueDelaySignal(clock=FakeClock())
    assert not signal.doomed(None)
    assert not signal.doomed(0.001)  # no floor yet: conservative
    assert signal.doomed(0.0)
    assert signal.doomed(-1.0)


def test_shedder_never_drops_an_idle_feasible_request():
    """The safety property: remaining >= the demonstrated service floor
    means an idle system could serve it in time — never shed."""
    clock = FakeClock()
    signal = QueueDelaySignal(clock=clock)
    signal.observe_service(0.2)
    signal.observe_service(0.05)  # the optimistic floor
    signal.observe_sojourn(3.0)  # heavy congestion right now
    assert not signal.doomed(0.05)  # == floor: an idle shard makes it
    assert not signal.doomed(1.0)
    assert signal.doomed(0.04)  # below even the idle floor: certain miss


# -- WindowBatcher: priorities, bounds, adaptive LIFO ----------------------------


def quiet_batcher(**kwargs):
    """A batcher whose loop will not form a window during the test body.

    The batcher is work-conserving, so an idle loop would take the first
    submit at once.  One sentinel window is dispatched first and never
    settled: with it in flight, later arrivals coalesce behind the 30 s
    wait cap, and the test body sees them queued.
    """
    kwargs.setdefault("max_batch", 64)
    kwargs.setdefault("max_wait_seconds", 30.0)
    dispatched = threading.Event()
    b = WindowBatcher(lambda batch: dispatched.set(), **kwargs)
    b.submit("sentinel")
    assert dispatched.wait(30.0)
    return b


def test_batcher_weighted_dequeue_favors_interactive_without_starvation():
    b = quiet_batcher()
    try:
        for i in range(6):
            b.submit(("int", i), priority="interactive")
            b.submit(("std", i), priority="standard")
            b.submit(("bef", i), priority="best_effort")
        with b._lock:
            window = [item for item, _ in b._take_window_locked()]
        first_pass = window[:7]  # weights (4, 2, 1)
        assert [kind for kind, _ in first_pass] == ["int"] * 4 + ["std"] * 2 + ["bef"]
        # FIFO within each class below the LIFO threshold.
        assert [i for kind, i in first_pass if kind == "int"] == [0, 1, 2, 3]
    finally:
        b.close(drain=False)


def test_batcher_flips_to_lifo_under_depth():
    b = quiet_batcher(lifo_threshold=2)
    try:
        for i in range(5):
            b.submit(("std", i), priority="standard")
        with b._lock:
            window = [item for item, _ in b._take_window_locked()]
        # Depth 5 > threshold 2: newest-first, the freshest requests are
        # the ones whose deadlines are still alive.
        assert [i for _, i in window] == [4, 3, 2, 1, 0]
    finally:
        b.close(drain=False)


def test_batcher_bounded_queue_sheds_at_capacity():
    b = quiet_batcher(max_queue=2)
    try:
        b.submit("a")
        b.submit("b", priority="best_effort")
        assert b.depth == 2
        with pytest.raises(QueueFullError):
            b.submit("c")
    finally:
        b.close(drain=False)


def test_batcher_evict_searches_all_classes():
    b = quiet_batcher()
    try:
        item = ("bef", 0)
        b.submit(("int", 0), priority="interactive")
        b.submit(item, priority="best_effort")
        assert b.evict(item) is True
        assert b.evict(item) is False
        assert b.depth == 1
    finally:
        b.close(drain=False)


def test_batcher_dispatches_and_resolves_across_classes():
    done = threading.Event()

    def dispatch(batch):
        for item, pending in batch:
            pending.resolve(item)
        done.set()

    b = WindowBatcher(dispatch, max_batch=3, max_wait_seconds=0.01)
    try:
        pendings = [
            b.submit(i, priority=cls)
            for i, cls in enumerate(("best_effort", "standard", "interactive"))
        ]
        assert done.wait(5.0)
        assert sorted(p.wait(5.0) for p in pendings) == [0, 1, 2]
    finally:
        b.close()


# -- AdmissionController ---------------------------------------------------------


def test_admission_without_signal_unchanged():
    ctl = AdmissionController(max_in_flight=1)
    first = ctl.try_begin()
    assert first.admitted
    second = ctl.try_begin()
    assert not second.admitted and second.reason == "capacity"
    ctl.finish(failure=False)


# -- cluster integration ---------------------------------------------------------


@pytest.fixture(scope="module")
def overload_cluster():
    config = ClusterConfig(
        shards=1,
        max_batch=4,
        max_wait_seconds=0.005,
        request_timeout_seconds=20.0,
        rebalance_seconds=0.1,
        fsync="never",
        queue_target_seconds=0.5,
        adaptive_lifo=True,
    )
    with ClusterManager(config) as manager:
        yield manager


@pytest.fixture(scope="module")
def instance_doc():
    from repro.core.serialization import instance_to_dict

    return instance_to_dict(make_instance(n=6, m=2, seed=3))


def test_cluster_serves_prioritized_deadline_requests(overload_cluster, instance_doc):
    doc = overload_cluster.submit(
        "approx", instance_doc, priority="interactive", deadline_seconds=30.0
    )
    assert doc["status"] == 200
    assert doc["metrics"]["mean_accuracy"] > 0


def test_cluster_sheds_past_deadline_requests(overload_cluster, instance_doc):
    # Serve once so the shard has a service floor, then present a deadline
    # below it: the request must be shed up front, spending nothing.
    overload_cluster.submit("approx", instance_doc, priority="standard", deadline_seconds=30.0)
    doc = overload_cluster.submit(
        "approx", instance_doc, priority="standard", deadline_seconds=1e-9
    )
    assert doc["status"] == 503
    assert doc["error"] == "deadline_doomed"


def test_cluster_overload_snapshot_shape(overload_cluster, instance_doc):
    overload_cluster.submit("approx", instance_doc, priority="best_effort")
    health = overload_cluster.health()
    overload = health["overload"]
    (shard_stats,) = overload["shards"].values()
    assert 0.0 < shard_stats["admit_rate"] <= 1.0
    assert "queue_delay" in shard_stats


def test_frontend_sheds_doomed_then_overload():
    # The front-end's one admission path, in order: a doomed deadline,
    # then the AIMD refusal, which refuses best-effort traffic first.
    # Nothing here reaches the batcher, so no worker needs to run.
    config = ClusterConfig(shards=1, queue_target_seconds=0.5)
    manager = ClusterManager(config)
    manager._handles["shard-00"].alive = True
    state = manager._overload["shard-00"]
    state.signal.observe_service(1.0)  # no request with under 1 s left can make it
    clock = FakeClock()
    state.controller = AdmitRateController(interval_seconds=1.0, clock=clock)
    for _ in range(12):
        clock.advance(1.1)
        state.controller.observe(10.0)
    # Spend the starting credits.
    assert state.controller.admit("standard") and state.controller.admit("best_effort")

    doomed = manager.submit("approx", {}, priority="best_effort", deadline_seconds=0.5)
    best_effort = manager.submit("approx", {}, priority="best_effort")
    refused = manager.submit("approx", {}, priority="standard")
    assert (doomed["error"], doomed["retry_after"]) == ("deadline_doomed", 1.0)
    assert (best_effort["error"], best_effort["retry_after"]) == ("overload", 1.0)
    assert (refused["error"], refused["retry_after"]) == ("overload", 1.0)
    assert all(doc["status"] == 503 for doc in (doomed, best_effort, refused))
