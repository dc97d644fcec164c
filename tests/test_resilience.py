"""Fault-tolerant serving: fallback chains, replanning, admission."""

import contextlib
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.algorithms import ApproxScheduler
from repro.algorithms.base import Scheduler
from repro.algorithms.registry import make_scheduler
from repro.core import instance_to_dict
from repro.hardware import sample_uniform_cluster
from repro.resilience import (
    AdmissionController,
    BreakerState,
    CircuitBreaker,
    FallbackChain,
    FallbackTier,
    run_with_deadline,
)
from repro.server import make_server
from repro.simulator.failures import (
    FailureModel,
    Outage,
    Slowdown,
)
from repro.simulator.online_sim import OnlineSimulation
from repro.telemetry import collector
from repro.utils.errors import (
    FallbackExhaustedError,
    SolverError,
    SolverTimeoutError,
    ValidationError,
)
from repro.workloads.arrivals import PoissonArrivals

from conftest import make_instance


class SleepyScheduler(Scheduler):
    """Never returns within any reasonable deadline."""

    name = "sleepy"

    def __init__(self, seconds=30.0):
        self.seconds = seconds

    def solve(self, instance):
        time.sleep(self.seconds)
        return ApproxScheduler().solve(instance)


class FailingScheduler(Scheduler):
    """Raises a solver error ``failures`` times, then succeeds."""

    name = "flaky"

    def __init__(self, failures=10**9):
        self.failures = failures
        self.calls = 0

    def solve(self, instance):
        self.calls += 1
        if self.calls <= self.failures:
            raise SolverError("injected failure")
        return ApproxScheduler().solve(instance)


class BoomScheduler(Scheduler):
    """Raises a non-ReproError (a genuine bug)."""

    name = "boom"

    def solve(self, instance):
        raise RuntimeError("unexpected bug")


# -- run_with_deadline ---------------------------------------------------------


class TestRunWithDeadline:
    def test_no_deadline_runs_inline(self):
        assert run_with_deadline(lambda: 42, None) == 42

    def test_fast_fn_returns(self):
        assert run_with_deadline(lambda: "ok", 5.0, solver="x") == "ok"

    def test_timeout_raises_and_counts(self):
        with collector() as tele:
            with pytest.raises(SolverTimeoutError):
                run_with_deadline(lambda: time.sleep(10), 0.05, solver="sleepy")
        assert tele.counter("solver_timeouts_total", solver="sleepy").value == 1.0

    def test_exceptions_propagate(self):
        def bad():
            raise SolverError("inner")

        with pytest.raises(SolverError, match="inner"):
            run_with_deadline(bad, 5.0)

    def test_worker_inherits_collector(self):
        """Telemetry emitted inside the worker thread lands in the caller's registry."""
        from repro.telemetry import get_collector

        def fn():
            get_collector().counter("from_worker_total").inc()
            return 1

        with collector() as tele:
            run_with_deadline(fn, 5.0)
        assert tele.counter("from_worker_total").value == 1.0

    def test_invalid_deadline(self):
        with pytest.raises(ValidationError):
            run_with_deadline(lambda: 1, -1.0)


# -- FallbackChain -------------------------------------------------------------


class TestFallbackChain:
    def test_sleeping_solver_falls_back(self):
        """A tier past its deadline is abandoned; the next tier serves."""
        inst = make_instance(n=8, m=2, beta=0.5, seed=700)
        chain = FallbackChain(
            [("sleepy", SleepyScheduler()), ("approx", ApproxScheduler())],
            deadline_seconds=0.2,
        )
        with collector() as tele:
            result = chain.solve_with_info(inst)
        assert result.info.extra["tier"] == "approx"
        assert result.info.extra["tier_index"] == 1
        assert result.info.extra["skipped"][0]["reason"] == "timeout"
        assert tele.counter("solver_timeouts_total", solver="sleepy").value == 1.0
        assert tele.counter("fallback_served_total", tier="approx").value == 1.0
        assert tele.counter("fallback_degraded_total").value == 1.0
        assert result.schedule.feasibility().feasible

    def test_first_tier_serves_without_degradation(self):
        inst = make_instance(n=6, m=2, beta=0.5, seed=701)
        chain = FallbackChain([ApproxScheduler()], deadline_seconds=30.0)
        with collector() as tele:
            result = chain.solve_with_info(inst)
        assert result.info.extra["tier_index"] == 0
        assert tele.counter("fallback_degraded_total").value == 0.0

    def test_error_tier_retried_then_skipped(self):
        inst = make_instance(n=6, m=2, beta=0.5, seed=702)
        flaky = FailingScheduler()
        chain = FallbackChain(
            [("flaky", flaky), ("approx", ApproxScheduler())],
            retries=2,
            backoff_seconds=0.0,
        )
        with collector() as tele:
            result = chain.solve_with_info(inst)
        assert flaky.calls == 3  # 1 + 2 retries
        assert result.info.extra["tier"] == "approx"
        assert tele.counter("solver_retries_total", solver="flaky").value == 2.0

    def test_transient_error_recovers_within_tier(self):
        inst = make_instance(n=6, m=2, beta=0.5, seed=703)
        flaky = FailingScheduler(failures=1)
        chain = FallbackChain([("flaky", flaky)], retries=1, backoff_seconds=0.0)
        result = chain.solve_with_info(inst)
        assert result.info.extra["tier"] == "flaky"
        assert flaky.calls == 2

    def test_exhaustion_raises(self):
        inst = make_instance(n=5, m=2, beta=0.5, seed=704)
        chain = FallbackChain(
            [("a", FailingScheduler()), ("b", FailingScheduler())], backoff_seconds=0.0
        )
        with collector() as tele:
            with pytest.raises(FallbackExhaustedError, match="a: error, b: error"):
                chain.solve(inst)
        assert tele.counter("fallback_exhausted_total").value == 1.0

    def test_default_ladder_and_pinning(self):
        chain = FallbackChain.default()
        assert chain.name == "FALLBACK(mip→lp→approx→greedy-energy)"
        pinned = FallbackChain.default(first="approx")
        assert [t.name for t in pinned.tiers] == ["approx", "mip", "lp", "greedy-energy"]

    def test_registered_in_registry(self):
        chain = make_scheduler("fallback", deadline_seconds=10.0)
        assert isinstance(chain, FallbackChain)
        inst = make_instance(n=4, m=2, beta=0.5, seed=705)
        assert chain.solve(inst).feasibility().feasible

    def test_unique_tier_names_enforced(self):
        with pytest.raises(ValidationError):
            FallbackChain([("x", ApproxScheduler()), ("x", ApproxScheduler())])

    def test_per_tier_deadline_override(self):
        inst = make_instance(n=6, m=2, beta=0.5, seed=706)
        chain = FallbackChain(
            [
                FallbackTier("sleepy", SleepyScheduler(), deadline_seconds=0.1),
                FallbackTier("approx", ApproxScheduler()),
            ],
            deadline_seconds=300.0,
        )
        start = time.perf_counter()
        result = chain.solve_with_info(inst)
        assert time.perf_counter() - start < 10.0
        assert result.info.extra["tier"] == "approx"


# -- circuit breaker and admission ---------------------------------------------


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        clock = FakeClock()
        with collector() as tele:
            breaker = CircuitBreaker(failure_threshold=3, reset_seconds=10.0, clock=clock)
            assert breaker.allow()
            for _ in range(3):
                breaker.record_failure()
            assert breaker.state == BreakerState.OPEN
            assert not breaker.allow()
            assert 0 < breaker.retry_after() <= 10.0
        assert tele.counter("breaker_opened_total").value == 1.0

    def test_success_resets_count(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == BreakerState.CLOSED

    def test_half_open_single_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=5.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.t = 6.0
        assert breaker.state == BreakerState.HALF_OPEN
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # everyone else waits for the verdict

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=5.0, clock=clock)
        breaker.record_failure()
        clock.t = 6.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == BreakerState.CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=5, reset_seconds=5.0, clock=clock)
        for _ in range(5):
            breaker.record_failure()
        clock.t = 6.0
        assert breaker.allow()
        breaker.record_failure()  # one probe failure re-opens immediately
        assert breaker.state == BreakerState.OPEN
        assert not breaker.allow()


class TestAdmissionController:
    def test_capacity_bound(self):
        with collector() as tele:
            ctrl = AdmissionController(max_in_flight=2)
            assert ctrl.try_begin().admitted
            assert ctrl.try_begin().admitted
            rejected = ctrl.try_begin()
            assert not rejected.admitted and rejected.reason == "capacity"
            assert rejected.retry_after_seconds > 0
            ctrl.finish()
            assert ctrl.try_begin().admitted
        assert tele.counter("admission_rejected_total", reason="capacity").value == 1.0

    def test_breaker_rejection(self):
        clock = FakeClock()
        ctrl = AdmissionController(
            max_in_flight=4, breaker=CircuitBreaker(failure_threshold=1, clock=clock)
        )
        decision = ctrl.try_begin()
        assert decision.admitted
        ctrl.finish(failure=True)  # trips the breaker (threshold 1)
        rejected = ctrl.try_begin()
        assert not rejected.admitted and rejected.reason == "breaker_open"
        assert rejected.retry_after_seconds >= 1

    def test_capacity_rejection_returns_the_half_open_probe(self):
        # Regression: try_begin() consumed the half-open probe via
        # breaker.allow() and then rejected on capacity without a verdict,
        # leaving the probe outstanding forever — no request could ever
        # reach a solver again, so the breaker could never close.
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=5.0, clock=clock)
        ctrl = AdmissionController(max_in_flight=1, breaker=breaker)
        assert ctrl.try_begin().admitted  # a stuck solve hogs the only slot
        breaker.record_failure()  # failures elsewhere trip the breaker
        clock.t = 6.0  # half-open: one probe available
        rejected = ctrl.try_begin()
        assert not rejected.admitted and rejected.reason == "capacity"
        assert breaker.allow()  # the unused probe was handed back

    def test_cancel_probe_semantics(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=5.0, clock=clock)
        breaker.cancel_probe()  # no-op while closed
        assert breaker.state == BreakerState.CLOSED
        breaker.record_failure()
        clock.t = 6.0
        assert breaker.allow()
        assert not breaker.allow()
        breaker.cancel_probe()
        assert breaker.allow()  # probe available again, still half-open
        breaker.record_success()
        assert breaker.state == BreakerState.CLOSED


class TestAdmissionConcurrency:
    def test_hammered_controller_keeps_its_books(self):
        # Many threads racing try_begin/finish: the slot count must never
        # go negative or past the bound, and must drain back to zero.
        ctrl = AdmissionController(max_in_flight=4)
        admitted_total = threading.Semaphore(0)
        errors = []

        def worker():
            for _ in range(50):
                decision = ctrl.try_begin()
                if decision.admitted:
                    seen = ctrl.in_flight
                    if not 0 <= seen <= 4:
                        errors.append(f"in_flight {seen} out of bounds")
                    ctrl.finish()
                    admitted_total.release()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert ctrl.in_flight == 0
        assert ctrl.breaker.state == BreakerState.CLOSED

    def test_concurrent_requests_against_threaded_server(self):
        # The end-to-end shape of the race: ThreadingHTTPServer handler
        # threads all share one AdmissionController.  Every request must
        # come back as either a successful solve or a clean 503 —
        # never a dropped connection or a wedged slot.
        inst = make_instance(n=4, m=2, beta=0.5, seed=747)
        payload = instance_to_dict(inst)
        admission = AdmissionController(max_in_flight=2)
        results = []
        lock = threading.Lock()
        with running_server(admission=admission) as (base, _):

            def fire():
                try:
                    resp = post_json(base + "/solve", payload)
                    outcome = ("ok", resp["feasible"])
                except urllib.error.HTTPError as err:
                    outcome = ("http", err.code)
                    err.close()
                except Exception as exc:  # noqa: BLE001 — the assertion target
                    outcome = ("broken", repr(exc))
                with lock:
                    results.append(outcome)

            threads = [threading.Thread(target=fire) for _ in range(10)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(results) == 10
        assert all(kind in ("ok", "http") for kind, _ in results), results
        assert all(code == 503 for kind, code in results if kind == "http"), results
        assert any(kind == "ok" for kind, _ in results)
        assert admission.in_flight == 0  # every admitted request was paired


# -- the HTTP server under the resilience layer --------------------------------


@contextlib.contextmanager
def running_server(**kwargs):
    server = make_server(**kwargs)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{port}", server
    finally:
        server.shutdown()
        server.server_close()


def post_json(url, payload):
    body = json.dumps(payload).encode()
    req = urllib.request.Request(url, data=body, method="POST")
    return json.load(urllib.request.urlopen(req, timeout=30))


class TestServerResilience:
    def test_unexpected_exception_returns_json_500(self, monkeypatch):
        inst = make_instance(n=4, m=2, beta=0.5, seed=740)
        monkeypatch.setattr("repro.cluster.solve_service.make_scheduler", lambda name: BoomScheduler())
        with running_server() as (base, server):
            with pytest.raises(urllib.error.HTTPError) as err:
                post_json(base + "/solve?scheduler=boom", instance_to_dict(inst))
            assert err.value.code == 500
            payload = json.loads(err.value.read().decode())
            assert "unexpected bug" in payload["error"]
            assert server.telemetry.counter("server_errors_total", status="500").value == 1.0

    def test_open_breaker_returns_503_with_retry_after(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=60.0)
        admission = AdmissionController(breaker=breaker)
        breaker.record_failure()  # trip it
        inst = make_instance(n=4, m=2, beta=0.5, seed=741)
        with running_server(admission=admission) as (base, server):
            with pytest.raises(urllib.error.HTTPError) as err:
                post_json(base + "/solve", instance_to_dict(inst))
            assert err.value.code == 503
            assert int(err.value.headers["Retry-After"]) >= 1
            payload = json.loads(err.value.read().decode())
            assert "breaker_open" in payload["error"]
            assert server.telemetry.counter("server_errors_total", status="503").value == 1.0

    def test_capacity_exhausted_returns_503(self):
        admission = AdmissionController(max_in_flight=1)
        assert admission.try_begin().admitted  # hog the only slot
        inst = make_instance(n=4, m=2, beta=0.5, seed=742)
        with running_server(admission=admission) as (base, _):
            with pytest.raises(urllib.error.HTTPError) as err:
                post_json(base + "/solve", instance_to_dict(inst))
            assert err.value.code == 503
            assert "Retry-After" in err.value.headers
        admission.finish()

    def test_solver_timeout_returns_503_and_counts(self, monkeypatch):
        inst = make_instance(n=4, m=2, beta=0.5, seed=743)
        monkeypatch.setattr("repro.cluster.solve_service.make_scheduler", lambda name: SleepyScheduler())
        with running_server(solver_timeout=0.1) as (base, server):
            with pytest.raises(urllib.error.HTTPError) as err:
                post_json(base + "/solve?scheduler=sleepy", instance_to_dict(inst))
            assert err.value.code == 503
            assert "Retry-After" in err.value.headers
            assert (
                server.telemetry.counter("solver_timeouts_total", solver="sleepy").value == 1.0
            )

    def test_repeated_timeouts_trip_the_breaker(self, monkeypatch):
        inst = make_instance(n=4, m=2, beta=0.5, seed=744)
        monkeypatch.setattr("repro.cluster.solve_service.make_scheduler", lambda name: SleepyScheduler())
        admission = AdmissionController(
            breaker=CircuitBreaker(failure_threshold=2, reset_seconds=60.0)
        )
        with running_server(solver_timeout=0.05, admission=admission) as (base, server):
            for _ in range(2):
                with pytest.raises(urllib.error.HTTPError):
                    post_json(base + "/solve", instance_to_dict(inst))
            assert admission.breaker.state == BreakerState.OPEN
            # now rejected up front, without touching the solver
            with pytest.raises(urllib.error.HTTPError) as err:
                post_json(base + "/solve", instance_to_dict(inst))
            assert err.value.code == 503
            payload = json.loads(err.value.read().decode())
            assert "breaker_open" in payload["error"]

    def test_fallback_server_reports_served_tier(self):
        inst = make_instance(n=4, m=2, beta=0.5, seed=745)
        with running_server(fallback=True, solver_timeout=30.0) as (base, _):
            resp = post_json(base + "/solve?scheduler=approx", instance_to_dict(inst))
            assert resp["served_tier"] == "approx"
            assert resp["feasible"]

    def test_normal_solve_still_works(self):
        inst = make_instance(n=4, m=2, beta=0.5, seed=746)
        with running_server(solver_timeout=30.0) as (base, _):
            resp = post_json(base + "/solve", instance_to_dict(inst))
            assert resp["feasible"]
            assert "served_tier" not in resp


# -- the online simulator under failures ---------------------------------------


class TestOnlineSimFailures:
    @pytest.fixture(scope="class")
    def stream(self):
        cluster = sample_uniform_cluster(3, seed=7)
        requests = PoissonArrivals(5.0, seed=8).generate(10.0)
        failures = FailureModel(outages=(Outage(machine=0, at=4.0),))
        return cluster, requests, failures

    def run(self, cluster, requests, failures, **kwargs):
        sim = OnlineSimulation(
            cluster, ApproxScheduler(), window_seconds=2.0, failures=failures, **kwargs
        )
        return sim.run(requests)

    def test_outage_replanning_strictly_improves_accuracy(self, stream):
        """The acceptance criterion: mid-horizon outage, replan on vs off."""
        cluster, requests, failures = stream
        stale = self.run(cluster, requests, failures, replan=False)
        aware = self.run(cluster, requests, failures, replan=True)
        assert aware.mean_accuracy > stale.mean_accuracy
        assert aware.served_fraction >= stale.served_fraction

    def test_no_failures_unaffected_by_replan_flag(self, stream):
        cluster, requests, _ = stream
        off = self.run(cluster, requests, FailureModel(), replan=False)
        on = self.run(cluster, requests, FailureModel(), replan=True)
        assert on.mean_accuracy == pytest.approx(off.mean_accuracy, rel=1e-9)

    def test_dead_machine_receives_no_dispatch_after_outage(self, stream):
        cluster, requests, failures = stream
        report = self.run(cluster, requests, failures, replan=True)
        for rec in report.records:
            if rec.machine == 0 and rec.start is not None:
                assert rec.start < 4.0 + 1e-9

    def test_stale_mode_loses_disrupted_requests(self, stream):
        cluster, requests, failures = stream
        report = self.run(cluster, requests, failures, replan=False)
        assert report.disrupted_count > 0
        disrupted_unserved = [r for r in report.records if r.disrupted and not r.served]
        assert disrupted_unserved  # queued shares on the dead machine vanish

    def test_slowdown_stretches_stale_execution(self):
        cluster = sample_uniform_cluster(2, seed=9)
        requests = PoissonArrivals(4.0, seed=10).generate(8.0)
        fm = FailureModel(
            slowdowns=(Slowdown(0, 0.0, 0.5), Slowdown(1, 0.0, 0.5))
        )
        healthy = OnlineSimulation(cluster, ApproxScheduler(), window_seconds=2.0).run(requests)
        slowed = OnlineSimulation(
            cluster, ApproxScheduler(), window_seconds=2.0, failures=fm, replan=False
        ).run(requests)
        assert slowed.slo_attainment <= healthy.slo_attainment + 1e-9
        assert slowed.machine_busy.sum() > healthy.machine_busy.sum()

    def test_failure_on_unknown_machine_rejected(self, stream):
        cluster, _, _ = stream
        with pytest.raises(ValidationError):
            OnlineSimulation(
                cluster,
                ApproxScheduler(),
                failures=FailureModel(outages=(Outage(99, 1.0),)),
            )


# -- CLI ------------------------------------------------------------------------


class TestResilienceCLI:
    def test_resilience_command(self, capsys):
        from repro.cli import main

        code = main(
            ["resilience", "--rate", "4", "--horizon", "8", "--seed", "7", "-m", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "stale plan" in out and "replanned" in out

    def test_robustness_outage_sweep(self, capsys, tmp_path):
        from repro.cli import main

        out_csv = tmp_path / "outage.csv"
        code = main(
            [
                "robustness", "--sweep", "outage",
                "-n", "12", "-m", "2", "--repetitions", "1", "--out", str(out_csv),
            ]
        )
        assert code == 0
        assert out_csv.exists()
        assert "outage_fraction" in capsys.readouterr().out

    def test_robustness_slowdown_sweep(self, capsys):
        from repro.cli import main

        code = main(["robustness", "--sweep", "slowdown", "-n", "12", "-m", "2", "--repetitions", "1"])
        assert code == 0
        assert "speed_factor" in capsys.readouterr().out

    def test_solve_with_fallback(self, capsys):
        from repro.cli import main

        code = main(["solve", "-n", "6", "-m", "2", "--fallback", "--scheduler", "approx"])
        assert code == 0
        assert "served by fallback tier: approx" in capsys.readouterr().out

    def test_solve_with_timeout(self, capsys):
        from repro.cli import main

        code = main(["solve", "-n", "6", "-m", "2", "--solver-timeout", "60"])
        assert code == 0
