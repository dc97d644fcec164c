"""Rolling-horizon online planner (a configuration of the durable window loop)."""

import numpy as np
import pytest

from repro.algorithms import ApproxScheduler
from repro.baselines import EDFNoCompressionScheduler
from repro.hardware import sample_uniform_cluster
from repro.online import RollingHorizonPlanner
from repro.online.planner import on_time_count, window_instance
from repro.utils.errors import ValidationError
from repro.workloads import MMPPArrivals, PoissonArrivals, Request
from repro.workloads.generator import tasks_from_thetas


@pytest.fixture(scope="module")
def cluster():
    return sample_uniform_cluster(2, seed=1)


@pytest.fixture(scope="module")
def stream():
    return PoissonArrivals(
        4.0, slo_range=(0.5, 1.5), theta_range=(0.2, 1.0), seed=2
    ).generate(12.0)


class TestPlanner:
    def test_window_budget(self, cluster):
        planner = RollingHorizonPlanner(
            cluster, ApproxScheduler(), window_seconds=2.0, power_cap_fraction=0.25
        )
        assert planner.window_budget == pytest.approx(0.25 * 2.0 * cluster.total_power)

    def test_run_covers_all_requests(self, cluster, stream):
        planner = RollingHorizonPlanner(cluster, ApproxScheduler(), window_seconds=2.0)
        report = planner.run(stream)
        assert report.n_requests == len(stream)
        assert 0.0 <= report.mean_accuracy <= 1.0
        assert 0.0 <= report.on_time_fraction <= 1.0

    def test_windows_respect_budget(self, cluster, stream):
        planner = RollingHorizonPlanner(
            cluster, ApproxScheduler(), window_seconds=2.0, power_cap_fraction=0.3
        )
        report = planner.run(stream)
        for window in report.windows:
            assert window.energy <= planner.window_budget * (1 + 1e-9)

    def test_approx_beats_nocompression_under_cap(self, cluster, stream):
        """The library's online claim: compression rescues tight caps."""
        cap = 0.25
        approx = RollingHorizonPlanner(
            cluster, ApproxScheduler(), window_seconds=2.0, power_cap_fraction=cap
        ).run(stream)
        nocomp = RollingHorizonPlanner(
            cluster, EDFNoCompressionScheduler(), window_seconds=2.0, power_cap_fraction=cap
        ).run(stream)
        assert approx.mean_accuracy > nocomp.mean_accuracy
        assert approx.on_time_fraction >= nocomp.on_time_fraction

    def test_empty_stream(self, cluster):
        planner = RollingHorizonPlanner(cluster, ApproxScheduler())
        report = planner.run([])
        assert report.n_requests == 0
        assert report.mean_accuracy == 0.0
        assert report.total_energy == 0.0

    def test_rejects_bad_params(self, cluster):
        with pytest.raises(ValidationError):
            RollingHorizonPlanner(cluster, ApproxScheduler(), window_seconds=0.0)
        with pytest.raises(ValidationError):
            RollingHorizonPlanner(cluster, ApproxScheduler(), power_cap_fraction=0.0)

    def test_single_request_window(self, cluster):
        planner = RollingHorizonPlanner(cluster, ApproxScheduler(), window_seconds=2.0)
        request = Request(arrival_time=0.5, slo_seconds=1.0, theta_per_tflop=0.3)
        (window,) = planner.run([request]).windows
        assert window.n_requests == 1 and window.start == 0.0
        _, instance = window_instance([request], window.start, cluster, planner.window_budget)
        schedule = ApproxScheduler().solve(instance)
        assert schedule.feasibility().feasible
        assert window.flops == tuple(schedule.task_flops.tolist())
        assert window.accuracies == tuple(schedule.task_accuracies.tolist())
        assert window.energy == schedule.total_energy


class TestWindowStep:
    def test_window_instance_plans_from_now(self, cluster):
        batch = [
            Request(arrival_time=1.0, slo_seconds=2.0, theta_per_tflop=0.3),
            Request(arrival_time=0.1, slo_seconds=0.2, theta_per_tflop=0.4),  # due before now
            Request(arrival_time=0.5, slo_seconds=2.5, theta_per_tflop=0.5),  # ties the first
            Request(arrival_time=0.6, slo_seconds=0.5, theta_per_tflop=0.6),
        ]
        order, instance = window_instance(batch, 0.5, cluster, 123.0)
        assert order.tolist() == [1, 3, 0, 2]  # EDF, ties in batch order
        assert instance.tasks.deadlines.tolist() == [
            1e-3,
            batch[3].deadline - 0.5,
            batch[0].deadline - 0.5,
            batch[2].deadline - 0.5,
        ]
        assert instance.cluster is cluster and instance.budget == 123.0
        for k, i in enumerate(order):
            alone = tasks_from_thetas([batch[i].theta_per_tflop], [1.0])
            assert instance.tasks.f_max[k] == alone.f_max[0]

    def test_on_time_count(self, cluster, stream):
        _, instance = window_instance(stream[:8], 0.0, cluster, 0.3 * 2.0 * cluster.total_power)
        schedule = ApproxScheduler().solve(instance)
        served = int(np.sum(schedule.task_flops > 0))
        assert served > 0
        assert on_time_count(schedule, np.full(8, np.inf)) == served
        assert on_time_count(schedule, np.zeros(8)) == 0

    def test_run_and_run_durable_agree_bit_for_bit(self, cluster, tmp_path, monkeypatch):
        """A journal does not change the outcome."""
        requests = MMPPArrivals(2.0, 8.0, mean_phase_seconds=2.0, seed=5).generate(12.0)
        planner = RollingHorizonPlanner(cluster, ApproxScheduler(), window_seconds=2.0)
        monkeypatch.chdir(tmp_path)
        plain = planner.run(requests)
        assert not any(tmp_path.iterdir())  # the plain run writes nothing
        durable = planner.run_durable(requests, tmp_path / "journal", fsync="never")
        assert len(plain.windows) > 1
        assert 0 < plain.on_time_fraction < 1
        assert plain.windows == durable.windows
