"""Future-work extension: renewable energy budgets."""

import math

import numpy as np
import pytest

from repro.algorithms import ApproxScheduler
from repro.extensions import RenewablePlanner, solar_curve
from repro.hardware import sample_uniform_cluster
from repro.utils.errors import ValidationError
from repro.workloads import TaskGenConfig, generate_tasks


@pytest.fixture(scope="module")
def cluster():
    return sample_uniform_cluster(2, seed=3)


def epoch_tasks(cluster, epochs=4, n=8):
    return [
        generate_tasks(TaskGenConfig(n=n, theta_range=(0.1, 1.0), rho=0.8), cluster, seed=500 + e)
        for e in range(epochs)
    ]


class TestSolarCurve:
    def test_shape_and_support(self):
        betas = solar_curve(24, 0.9)
        assert betas.shape == (24,)
        assert betas.max() == pytest.approx(0.9, rel=1e-2)
        # night epochs harvest nothing
        assert betas[0] == 0.0 and betas[-1] == 0.0
        # symmetric around noon
        assert betas[11] == pytest.approx(betas[12], rel=0.05)

    def test_rejects_bad_args(self):
        with pytest.raises(ValidationError):
            solar_curve(0, 0.5)
        with pytest.raises(ValidationError):
            solar_curve(4, -0.1)
        with pytest.raises(ValidationError):
            solar_curve(4, 0.5, sunrise_hour=20, sunset_hour=6)


class TestRenewablePlanner:
    def test_run_shapes(self, cluster):
        planner = RenewablePlanner(cluster, ApproxScheduler())
        tasks = epoch_tasks(cluster)
        harvests = planner.harvests_from_betas([0.0, 0.5, 0.9, 0.2], tasks)
        report = planner.run(tasks, harvests)
        assert len(report.epochs) == 4
        assert report.total_energy <= report.total_harvest + 1e-6

    def test_zero_harvest_epoch_scores_floor(self, cluster):
        planner = RenewablePlanner(cluster, ApproxScheduler())
        tasks = epoch_tasks(cluster, epochs=1)
        report = planner.run(tasks, [0.0])
        floor = float(np.mean([t.a_min for t in tasks[0]]))
        assert report.epochs[0].mean_accuracy == pytest.approx(floor)

    def test_battery_helps_night_epochs(self, cluster):
        tasks = epoch_tasks(cluster, epochs=3)
        no_batt = RenewablePlanner(cluster, ApproxScheduler(), battery_capacity=0.0)
        batt = RenewablePlanner(cluster, ApproxScheduler(), battery_capacity=math.inf)
        harvests = no_batt.harvests_from_betas([2.0, 0.0, 0.0], tasks)  # surplus then night
        plain = no_batt.run(tasks, harvests)
        banked = batt.run(tasks, harvests)
        assert banked.day_mean_accuracy > plain.day_mean_accuracy

    def test_battery_capacity_respected(self, cluster):
        tasks = epoch_tasks(cluster, epochs=2)
        planner = RenewablePlanner(cluster, ApproxScheduler(), battery_capacity=5.0)
        harvests = planner.harvests_from_betas([3.0, 0.0], tasks)
        report = planner.run(tasks, harvests)
        assert report.epochs[0].battery_after <= 5.0 + 1e-12

    def test_battery_efficiency_discount(self, cluster):
        tasks = epoch_tasks(cluster, epochs=1, n=2)
        lossless = RenewablePlanner(cluster, ApproxScheduler(), battery_capacity=math.inf)
        lossy = RenewablePlanner(
            cluster, ApproxScheduler(), battery_capacity=math.inf, battery_efficiency=0.5
        )
        harvests = lossless.harvests_from_betas([5.0], tasks)
        full = lossless.run(tasks, harvests).epochs[0].battery_after
        half = lossy.run(tasks, harvests).epochs[0].battery_after
        assert half == pytest.approx(full / 2, rel=1e-9)

    def test_validation(self, cluster):
        with pytest.raises(ValidationError):
            RenewablePlanner(cluster, ApproxScheduler(), battery_capacity=-1.0)
        with pytest.raises(ValidationError):
            RenewablePlanner(cluster, ApproxScheduler(), battery_efficiency=0.0)
        planner = RenewablePlanner(cluster, ApproxScheduler())
        tasks = epoch_tasks(cluster, epochs=1)
        with pytest.raises(ValidationError):
            planner.run(tasks, [1.0, 2.0])
        with pytest.raises(ValidationError):
            planner.run(tasks, [-1.0])

