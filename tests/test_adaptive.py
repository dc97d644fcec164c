"""Adaptive budget pacing for online serving."""

import pytest

from repro.algorithms import ApproxScheduler
from repro.hardware import sample_uniform_cluster
from repro.online import AdaptiveBudgetPlanner, RollingHorizonPlanner
from repro.utils.errors import ValidationError
from repro.workloads import MMPPArrivals, PoissonArrivals


@pytest.fixture(scope="module")
def cluster():
    return sample_uniform_cluster(2, seed=9)


@pytest.fixture(scope="module")
def bursty():
    return MMPPArrivals(1.5, 15.0, mean_phase_seconds=6.0, seed=4).generate(40.0)


class TestAdaptivePlanner:
    def test_total_budget_respected(self, cluster, bursty):
        planner = AdaptiveBudgetPlanner(
            cluster, ApproxScheduler(), total_budget=5000.0, horizon_seconds=40.0
        )
        report = planner.run(bursty)
        assert report.total_energy <= 5000.0 * (1 + 1e-9)

    def test_beats_fixed_cap_on_bursty_traffic(self, cluster, bursty):
        """Strict pacing reuses what calm windows forfeit under a fixed cap."""
        fixed = RollingHorizonPlanner(
            cluster, ApproxScheduler(), window_seconds=2.0, power_cap_fraction=0.25
        )
        fixed_rep = fixed.run(bursty)
        pool = fixed.window_budget * len(fixed_rep.windows)
        adaptive = AdaptiveBudgetPlanner(
            cluster, ApproxScheduler(), total_budget=pool, horizon_seconds=40.0, window_seconds=2.0
        )
        ad_rep = adaptive.run(bursty)
        assert ad_rep.mean_accuracy > fixed_rep.mean_accuracy
        assert ad_rep.total_energy <= pool * (1 + 1e-9)

    def test_all_requests_planned(self, cluster):
        stream = PoissonArrivals(3.0, seed=2).generate(10.0)
        planner = AdaptiveBudgetPlanner(
            cluster, ApproxScheduler(), total_budget=4000.0, horizon_seconds=10.0
        )
        report = planner.run(stream)
        assert report.n_requests == len(stream)

    def test_empty_stream(self, cluster):
        planner = AdaptiveBudgetPlanner(
            cluster, ApproxScheduler(), total_budget=1000.0, horizon_seconds=10.0
        )
        report = planner.run([])
        assert report.n_requests == 0

    def test_validation(self, cluster):
        with pytest.raises(ValidationError):
            AdaptiveBudgetPlanner(cluster, ApproxScheduler(), total_budget=0.0, horizon_seconds=10.0)
        with pytest.raises(ValidationError):
            AdaptiveBudgetPlanner(
                cluster, ApproxScheduler(), total_budget=1.0, horizon_seconds=1.0, window_seconds=2.0
            )
