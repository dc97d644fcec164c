"""SLO evaluation and the energy burn-rate monitor."""

import math

import pytest

from repro.cli import main
from repro.durability import read_events
from repro.observe import (
    BurnRateMonitor,
    SLOSpec,
    evaluate,
    histogram_quantile,
)
from repro.telemetry import MetricsRegistry
from repro.utils.errors import ValidationError


class TestHistogramQuantile:
    def test_empty_histogram_returns_nan(self):
        # All-zero counts and no-bounds are both "no data": NaN, explicitly.
        assert math.isnan(histogram_quantile(0.99, [1.0, 10.0], [0, 0, 0]))
        assert math.isnan(histogram_quantile(0.5, [], []))

    def test_empty_histogram_passes_slo_vacuously(self):
        reg = MetricsRegistry()
        # A registered-but-never-observed latency histogram must read as
        # "no data" (vacuous pass), not as a NaN comparison failure.
        reg.histogram("span_duration_seconds", span="server.solve")
        report = evaluate(reg, SLOSpec(p99_solve_latency=0.1))
        (status,) = report.statuses
        assert status.ok and status.actual is None

    def test_interpolates_within_bucket(self):
        # 10 obs in (0, 1]: p50 lands mid-bucket.
        assert histogram_quantile(0.5, [1.0, 10.0], [10, 0, 0]) == pytest.approx(0.5)
        # 5 in (0,.1], 5 in (.1,1]: p99 interpolates near the top of bucket 2.
        assert histogram_quantile(0.99, [0.1, 1.0], [5, 5, 0]) == pytest.approx(0.982)

    def test_inf_bucket_clamps_to_highest_finite_bound(self):
        assert histogram_quantile(0.99, [0.1, 1.0], [0, 0, 10]) == 1.0

    def test_validates_quantile(self):
        with pytest.raises(ValidationError):
            histogram_quantile(1.5, [1.0], [1, 0])


class TestSpec:
    def test_empty_detection(self):
        assert SLOSpec().empty
        assert not SLOSpec(p99_solve_latency=1.0).empty

    def test_validation(self):
        with pytest.raises(ValidationError):
            SLOSpec(p99_solve_latency=-1.0)
        with pytest.raises(ValidationError):
            SLOSpec(accuracy_floor=1.5)
        with pytest.raises(ValidationError):
            SLOSpec(deadline_miss_rate=-0.1)
        with pytest.raises(ValidationError):
            SLOSpec(queue_delay_p99=0.0)
        assert not SLOSpec(queue_delay_p99=0.5).empty


class TestEvaluate:
    def registry_with_traffic(self, latencies=(0.01, 0.02), acc=7.2, requests=10, on_time=9):
        reg = MetricsRegistry()
        hist = reg.histogram(
            "span_duration_seconds", span="server.solve", buckets=(0.005, 0.05, 0.5)
        )
        for value in latencies:
            hist.observe(value)
        reg.counter("planner_accuracy_total").add(acc)
        reg.counter("planner_requests_total").add(requests)
        reg.counter("planner_on_time_total").add(on_time)
        return reg

    def test_all_objectives_pass(self):
        reg = self.registry_with_traffic()
        report = evaluate(
            reg,
            SLOSpec(p99_solve_latency=0.5, accuracy_floor=0.5, deadline_miss_rate=0.2),
        )
        assert report.ok
        assert len(report.statuses) == 3
        assert all(s.actual is not None for s in report.statuses)

    def test_latency_breach_fails(self):
        reg = self.registry_with_traffic(latencies=(0.4,) * 20)
        report = evaluate(reg, SLOSpec(p99_solve_latency=0.01))
        assert not report.ok
        (latency,) = report.statuses
        assert latency.actual > 0.01
        assert "FAIL" in report.summary()

    def test_accuracy_floor_breach_fails(self):
        reg = self.registry_with_traffic(acc=2.0, requests=10)  # mean 0.2
        report = evaluate(reg, SLOSpec(accuracy_floor=0.5))
        assert not report.ok

    def test_miss_rate_breach_fails(self):
        reg = self.registry_with_traffic(requests=10, on_time=5)  # 50% misses
        report = evaluate(reg, SLOSpec(deadline_miss_rate=0.2))
        assert not report.ok
        (miss,) = report.statuses
        assert miss.actual == pytest.approx(0.5)

    def queue_delay_registry(self, sojourns):
        reg = MetricsRegistry()
        buckets = (0.005, 0.05, 0.5, 5.0)
        for index, value in enumerate(sojourns):
            shard = f"shard-{index % 2:02d}"  # merged across shard labels
            reg.histogram("frontend_queue_delay_seconds", shard=shard, buckets=buckets).observe(
                value
            )
        return reg

    def test_queue_delay_objective_passes_on_healthy_queues(self):
        reg = self.queue_delay_registry([0.01] * 20)
        report = evaluate(reg, SLOSpec(queue_delay_p99=0.5))
        assert report.ok
        (status,) = report.statuses
        assert status.objective == "queue_delay_p99"
        assert status.actual <= 0.5

    def test_queue_delay_breach_fails(self):
        reg = self.queue_delay_registry([2.0] * 20)
        report = evaluate(reg, SLOSpec(queue_delay_p99=0.1))
        assert not report.ok
        (status,) = report.statuses
        assert status.actual > 0.1
        assert "shards" in status.detail

    def test_no_data_passes_vacuously(self):
        report = evaluate(
            MetricsRegistry(),
            SLOSpec(p99_solve_latency=1.0, accuracy_floor=0.9, deadline_miss_rate=0.0),
        )
        assert report.ok
        assert all(s.actual is None for s in report.statuses)
        assert "no data" in report.summary()

    def test_to_dict_round_trips_json(self):
        import json

        report = evaluate(self.registry_with_traffic(), SLOSpec(accuracy_floor=0.5))
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["ok"] is True
        assert doc["objectives"][0]["objective"] == "accuracy_floor"


class TestBurnRateMonitor:
    def test_nominal_spend_stays_silent(self):
        monitor = BurnRateMonitor(budget=100.0, horizon=100.0)
        # Exactly sustainable (1 J/s) the whole way: below both thresholds.
        for t in range(1, 101):
            assert monitor.observe(float(t), float(t)) == []
        assert monitor.alerts == []
        assert monitor.spent_fraction == pytest.approx(1.0)
        assert monitor.exhausted

    def test_fast_burn_fires_on_budget_exhaustion_rate(self):
        monitor = BurnRateMonitor(budget=100.0, horizon=100.0)
        fired = monitor.observe(5.0, 50.0)  # 10 W against 1 W sustainable
        severities = {a.severity for a in fired}
        assert severities == {"fast", "slow"}
        fast = next(a for a in fired if a.severity == "fast")
        assert fast.burn_rate >= fast.threshold
        assert "fast-burn" in str(fast)

    def test_alerts_latch_per_severity(self):
        monitor = BurnRateMonitor(budget=100.0, horizon=100.0)
        assert len(monitor.observe(5.0, 50.0)) == 2
        assert monitor.observe(6.0, 70.0) == []  # both already latched
        assert len(monitor.alerts) == 2

    def test_slow_drift_fires_slow_only(self):
        monitor = BurnRateMonitor(budget=100.0, horizon=100.0)
        # 1.5 W sustained: over the slow threshold (1.2x), under fast (2x).
        fired = []
        for t in range(1, 40):
            fired += monitor.observe(float(t), 1.5 * t)
        assert {a.severity for a in fired} == {"slow"}

    def test_monotonicity_enforced(self):
        monitor = BurnRateMonitor(budget=10.0, horizon=10.0)
        monitor.observe(2.0, 1.0)
        with pytest.raises(ValidationError, match="time went backwards"):
            monitor.observe(1.0, 2.0)
        with pytest.raises(ValidationError, match="energy decreased"):
            monitor.observe(3.0, 0.5)

    def test_projected_exhaustion(self):
        monitor = BurnRateMonitor(budget=100.0, horizon=100.0)
        monitor.observe(10.0, 20.0)  # 2 W -> 40 s left for the remaining 80 J
        assert monitor.projected_exhaustion() == pytest.approx(50.0)
        silent = BurnRateMonitor(budget=100.0, horizon=100.0)
        assert silent.projected_exhaustion() is None

    def test_status_is_json_ready(self):
        import json

        monitor = BurnRateMonitor(budget=100.0, horizon=100.0)
        monitor.observe(5.0, 50.0)
        doc = json.loads(json.dumps(monitor.status()))
        assert doc["spent"] == 50.0
        assert doc["fast"]["burn_rate"] > doc["fast"]["threshold"]
        assert {a["severity"] for a in doc["alerts"]} == {"fast", "slow"}

    def test_validation(self):
        with pytest.raises(ValidationError):
            BurnRateMonitor(budget=0.0, horizon=10.0)
        with pytest.raises(ValidationError):
            BurnRateMonitor(budget=10.0, horizon=-1.0)


class TestJournalBurnReplay:
    """``repro slo --journal-dir`` replays a durable run's energy ledger."""

    @pytest.fixture(scope="class")
    def journal(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("journal")
        args = ["online", "--horizon", "12", "--rate", "6", "--journal-dir", str(directory)]
        assert main(args) == 0
        budget = read_events(directory)[0]["meta"]["energy_budget"]
        return directory, budget

    def slo(self, directory, budget, horizon=12):
        return main(["slo", "--journal-dir", str(directory), "--budget", repr(budget), "--horizon", str(horizon)])

    def test_paced_run_burns_at_the_sustainable_rate(self, journal, capsys):
        # The run paces B evenly over its windows, so replayed at its own
        # horizon it spends at exactly the sustainable rate.
        directory, budget = journal
        capsys.readouterr()
        assert self.slo(directory, budget) == 0
        out = capsys.readouterr().out
        assert "fast 1.00x, slow 1.00x sustainable" in out
        assert "ALERT" not in out

    def test_run_that_spends_its_budget_fires_slow_burn(self, journal, capsys):
        # Spending B in 12 s of an 18 s budget period reads as a slow burn
        # (1.5x), not a fast one.
        directory, budget = journal
        capsys.readouterr()
        assert self.slo(directory, budget, horizon=18) == 1
        out = capsys.readouterr().out
        assert "ALERT slow-burn" in out
        assert "ALERT fast-burn" not in out
        assert "replay over 6 ledger sample(s)" in out

    def test_run_that_spends_half_its_budget_stays_silent(self, journal, capsys):
        directory, budget = journal
        capsys.readouterr()
        assert self.slo(directory, 2.0 * budget) == 0
        assert "ALERT" not in capsys.readouterr().out

    def test_ample_budget_stays_silent(self, journal, capsys):
        directory, _ = journal
        capsys.readouterr()
        assert self.slo(directory, 1e6) == 0
        assert "ALERT" not in capsys.readouterr().out

    def test_missing_journal_is_an_error(self, tmp_path, capsys):
        assert self.slo(tmp_path / "no-such-dir", 100.0) == 2
        assert "no journal records" in capsys.readouterr().err


class TestBudgetedRunObjectives:
    """A journaled, budgeted run feeds the accuracy and miss-rate objectives."""

    def test_slo_reads_a_budgeted_runs_counters(self, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        args = ["online", "--horizon", "12", "--rate", "6", "--journal-dir", str(tmp_path / "j")]
        assert main([*args, "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        assert main(["slo", str(metrics), "--accuracy-floor", "0.99"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("[FAIL] accuracy_floor: 0.75")
        assert "mean of planner_accuracy_total over 64 request(s)" in out
        assert main(["slo", str(metrics), "--miss-rate", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "no data" not in out
        assert "miss rate from planner_on_time_total over 64 request(s)" in out
