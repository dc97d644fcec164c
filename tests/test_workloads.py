"""Workload generation: generators, paper scenarios, arrival processes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ExponentialAccuracy, Task, TaskSet, fit_piecewise
from repro.core.segments import SegmentTable
from repro.hardware import sample_uniform_cluster
from repro.utils import units
from repro.utils.errors import ValidationError
from repro.workloads import (
    MMPPArrivals,
    PoissonArrivals,
    Request,
    TaskGenConfig,
    budget_sweep_instance,
    earliest_high_efficiency_tasks,
    fig6_cluster,
    fig6_instance,
    generate_instance,
    generate_tasks,
    heterogeneity_instance,
    runtime_instance,
    tasks_from_thetas,
    uniform_mix_tasks,
    window_batches,
)


@pytest.fixture(scope="module")
def cluster():
    return sample_uniform_cluster(3, seed=0)


class TestGenerator:
    def test_config_validation(self):
        with pytest.raises(ValidationError):
            TaskGenConfig(n=0)
        with pytest.raises(ValidationError):
            TaskGenConfig(theta_range=(0.5, 0.1))
        with pytest.raises(ValidationError):
            TaskGenConfig(rho=0.0)
        with pytest.raises(ValidationError):
            TaskGenConfig(deadline_floor=0.0)

    def test_realises_rho(self, cluster):
        config = TaskGenConfig(n=30, theta_range=(0.1, 1.0), rho=0.42)
        tasks = generate_tasks(config, cluster, seed=1)
        rho = tasks.d_max * cluster.total_speed / tasks.total_f_max
        assert rho == pytest.approx(0.42, rel=1e-9)

    def test_theta_range(self, cluster):
        config = TaskGenConfig(n=40, theta_range=(0.2, 0.9))
        tasks = generate_tasks(config, cluster, seed=2)
        for t in tasks:
            theta_tflop = t.efficiency_theta * units.TERA
            # the fitted first slope is close to (and never above) θ
            assert 0.05 < theta_tflop <= 0.9 * 1.01

    def test_uniform_theta(self, cluster):
        config = TaskGenConfig(n=10, theta_range=(0.3, 0.3))
        tasks = generate_tasks(config, cluster, seed=3)
        thetas = {round(t.efficiency_theta * units.TERA, 9) for t in tasks}
        assert len(thetas) == 1

    def test_reproducible(self, cluster):
        config = TaskGenConfig(n=10)
        a = generate_tasks(config, cluster, seed=5)
        b = generate_tasks(config, cluster, seed=5)
        assert np.allclose(a.deadlines, b.deadlines)

    def test_single_task(self, cluster):
        config = TaskGenConfig(n=1)
        tasks = generate_tasks(config, cluster, seed=6)
        assert len(tasks) == 1

    def test_tasks_from_thetas_mismatch(self):
        with pytest.raises(ValidationError):
            tasks_from_thetas([0.1, 0.2], [1.0])
        with pytest.raises(ValidationError):
            tasks_from_thetas([0.1], [1.0, 2.0])

    def test_generate_instance_beta(self, cluster):
        inst = generate_instance(TaskGenConfig(n=5), cluster, beta=0.37, seed=7)
        assert inst.beta == pytest.approx(0.37)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 30), st.floats(0.05, 3.0), st.integers(0, 10_000))
    def test_property_sorted_and_positive(self, n, rho, seed):
        cluster = sample_uniform_cluster(2, seed=seed)
        tasks = generate_tasks(TaskGenConfig(n=n, rho=rho), cluster, seed=seed)
        assert len(tasks) == n
        assert np.all(np.diff(tasks.deadlines) >= 0)
        assert np.all(tasks.deadlines > 0)


def reference_task_set(thetas, deadlines, n_segments=5):
    """The per-task build tasks_from_thetas replaced: fit_piecewise → Task → TaskSet."""
    return TaskSet(
        [
            Task(deadline=d, accuracy=fit_piecewise(ExponentialAccuracy(theta / units.TERA), n_segments))
            for theta, d in zip(thetas, deadlines)
        ]
    )


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_task_sets(built, reference):
    """Bit-for-bit equal rows, Task objects and segment tables."""
    assert len(built) == len(reference)
    assert same_bits(built.deadlines, reference.deadlines)
    assert same_bits(built.f_max, reference.f_max)
    for a, b in zip(built, reference):
        assert a.deadline == b.deadline and a.name == b.name
        assert same_bits(a.accuracy.breakpoints, b.accuracy.breakpoints)
        assert same_bits(a.accuracy.breakpoint_accuracies, b.accuracy.breakpoint_accuracies)
        assert same_bits(a.accuracy.slopes, b.accuracy.slopes)
    for name in SegmentTable.__slots__:
        assert same_bits(getattr(built.segment_table, name), getattr(reference.segment_table, name)), name


class TestTasksFromThetasArrays:
    @pytest.mark.parametrize("n", [1, 4, 12, 77, 120, 160])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_per_task_fit_bit_for_bit(self, n, seed):
        rng = np.random.default_rng(seed)
        thetas = rng.uniform(0.05, 3.0, n).tolist()
        deadlines = rng.uniform(0.01, 2.0, n).tolist()
        assert_same_task_sets(tasks_from_thetas(thetas, deadlines), reference_task_set(thetas, deadlines))

    @pytest.mark.parametrize("n", [12, 77, 160])
    def test_repeated_thetas_and_tied_deadlines(self, n):
        rng = np.random.default_rng(n)
        thetas = np.round(rng.uniform(0.1, 2.0, n), 1).tolist()  # many repeats
        deadlines = (np.round(rng.uniform(0.0, 1.0, n), 1) + 0.1).tolist()  # many ties
        built = tasks_from_thetas(thetas, deadlines)
        assert_same_task_sets(built, reference_task_set(thetas, deadlines))
        # Ties keep their input order, as sorted() does.
        order = sorted(range(n), key=lambda i: deadlines[i])
        assert [t.efficiency_theta for t in built] == [
            fit_piecewise(ExponentialAccuracy(thetas[i] / units.TERA)).first_slope for i in order
        ]

    def test_other_segment_counts(self):
        thetas, deadlines = [0.3, 1.7, 0.3], [1.0, 0.5, 2.0]
        for k in (1, 2, 8):
            assert_same_task_sets(
                tasks_from_thetas(thetas, deadlines, n_segments=k), reference_task_set(thetas, deadlines, k)
            )

    def test_task_objects_are_built_once(self):
        tasks = tasks_from_thetas([0.2, 0.9], [1.0, 2.0])
        first = tasks[0]
        assert tasks.tasks is tasks.tasks
        assert tasks[0] is first and next(iter(tasks)) is first

    @pytest.mark.parametrize(
        "thetas, deadlines",
        [
            ([0.1, 0.0], [1.0, 1.0]),
            ([0.1, -0.2], [1.0, 1.0]),
            ([float("nan")], [1.0]),
            ([float("inf")], [1.0]),
            ([], []),
            ([0.1], [0.0]),
            ([0.1], [float("nan")]),
        ],
    )
    def test_rejects_what_the_per_task_path_rejected(self, thetas, deadlines):
        with pytest.raises(ValidationError):
            reference_task_set(thetas, deadlines)
        with pytest.raises(ValidationError):
            tasks_from_thetas(thetas, deadlines)

    def test_rejects_bad_curve_parameters(self):
        with pytest.raises(ValidationError):
            tasks_from_thetas([0.1], [1.0], a_min=0.9, a_max=0.5)
        with pytest.raises(ValidationError):
            tasks_from_thetas([0.1], [1.0], coverage=1.0)
        with pytest.raises(ValidationError):
            tasks_from_thetas([0.1], [1.0], n_segments=0)


class TestScenarios:
    def test_heterogeneity_instance_params(self):
        inst = heterogeneity_instance(8.0, n=20, m=3, seed=1)
        assert inst.n_tasks == 20 and inst.n_machines == 3
        assert inst.beta == pytest.approx(0.5)
        assert inst.mu <= 8.0 * 1.01

    def test_heterogeneity_rejects_mu_below_one(self):
        with pytest.raises(ValidationError):
            heterogeneity_instance(0.5)

    def test_runtime_instance_sizes(self):
        inst = runtime_instance(15, 4, seed=2)
        assert (inst.n_tasks, inst.n_machines) == (15, 4)

    def test_budget_sweep_common_deadline(self):
        inst = budget_sweep_instance(0.5, n=10, seed=3)
        assert np.allclose(inst.tasks.deadlines, inst.tasks.d_max)

    def test_budget_sweep_spread_deadlines(self):
        inst = budget_sweep_instance(0.5, n=10, common_deadline=False, seed=3)
        assert not np.allclose(inst.tasks.deadlines, inst.tasks.d_max)

    def test_fig6_cluster_parameters(self):
        c = fig6_cluster()
        assert c.speeds[0] == pytest.approx(units.tflops(2.0))
        assert c.efficiencies[0] == pytest.approx(units.gflops_per_watt(80.0))
        assert c.speeds[1] == pytest.approx(units.tflops(5.0))
        assert c.efficiencies[1] == pytest.approx(units.gflops_per_watt(70.0))

    def test_uniform_mix_theta_span(self):
        tasks = uniform_mix_tasks(fig6_cluster(), n=50, seed=4)
        thetas = np.array([t.efficiency_theta * units.TERA for t in tasks])
        assert thetas.min() < 1.0 and thetas.max() > 2.0

    def test_earliest_high_efficiency_structure(self):
        tasks = earliest_high_efficiency_tasks(fig6_cluster(), n=50, seed=5)
        thetas = np.array([t.efficiency_theta * units.TERA for t in tasks])
        n_early = 15
        # fitted first slopes sit slightly below the raw θ; use loose cuts
        assert np.all(thetas[:n_early] > 2.0)
        assert np.all(thetas[n_early:] < 2.0)

    def test_fig6_instance_scenarios(self):
        for scenario in ("uniform", "earliest"):
            inst = fig6_instance(0.4, scenario, n=20, seed=6)
            assert inst.n_machines == 2
        with pytest.raises(ValueError):
            fig6_instance(0.4, "nope")


class TestArrivals:
    def test_poisson_in_horizon(self):
        reqs = PoissonArrivals(5.0, seed=1).generate(10.0)
        assert all(0 <= r.arrival_time < 10.0 for r in reqs)
        assert len(reqs) > 10  # rate 5/s over 10 s

    def test_poisson_reproducible(self):
        a = PoissonArrivals(5.0, seed=2).generate(5.0)
        b = PoissonArrivals(5.0, seed=2).generate(5.0)
        assert [r.arrival_time for r in a] == [r.arrival_time for r in b]

    def test_request_deadline(self):
        reqs = PoissonArrivals(5.0, seed=3).generate(5.0)
        r = reqs[0]
        assert r.deadline == pytest.approx(r.arrival_time + r.slo_seconds)

    def test_mmpp_burstier_than_poisson(self):
        mmpp = MMPPArrivals(1.0, 30.0, mean_phase_seconds=5.0, seed=4).generate(120.0)
        # bursty process: inter-arrival coefficient of variation > 1
        gaps = np.diff([r.arrival_time for r in mmpp])
        cv = gaps.std() / gaps.mean()
        assert cv > 1.1

    def test_window_batches_cover_all(self):
        reqs = PoissonArrivals(5.0, seed=5).generate(8.0)
        windows = list(window_batches(reqs, 2.0))
        counted = sum(len(batch) for _, batch in windows)
        assert counted == len(reqs)
        for start, batch in windows:
            for r in batch:
                assert start <= r.arrival_time < start + 2.0

    def test_window_batches_empty_stream(self):
        assert list(window_batches([], 1.0)) == []

    @staticmethod
    def scan_window_batches(requests, window_seconds):
        """The reference: rescan the whole stream for every window start."""
        horizon = max(r.arrival_time for r in requests)
        start, out = 0.0, []
        while start <= horizon:
            batch = [r for r in requests if start <= r.arrival_time < start + window_seconds]
            if batch:
                out.append((start, batch))
            start += window_seconds
        return out

    def assert_matches_scan(self, requests, window_seconds):
        got = list(window_batches(requests, window_seconds))
        want = self.scan_window_batches(requests, window_seconds)
        # Identity, not equality: the same Request objects in the same order.
        assert [s for s, _ in got] == [s for s, _ in want]
        assert [[id(r) for r in b] for _, b in got] == [[id(r) for r in b] for _, b in want]

    @pytest.mark.parametrize("window_seconds", [0.1, 0.3, 0.7, 1.0, 2.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_window_batches_match_the_scan_on_random_streams(self, seed, window_seconds):
        rng = np.random.default_rng(seed)
        ordered = MMPPArrivals(2.0, 25.0, mean_phase_seconds=2.0, seed=seed).generate(12.0)
        shuffled = [ordered[i] for i in rng.permutation(len(ordered))]
        self.assert_matches_scan(ordered, window_seconds)
        self.assert_matches_scan(shuffled, window_seconds)

    @given(
        window_seconds=st.floats(0.1, 2.0),
        ticks=st.lists(st.integers(0, 60), min_size=1, max_size=40),
        shift=st.sampled_from([0.0, -1e-12, 1e-12]),
        accumulated=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_window_batches_match_the_scan_on_window_edges(self, window_seconds, ticks, shift, accumulated):
        # Arrivals on (or a hair off) the grid — accumulated like the
        # window starts, or multiplied, which rounds differently — in
        # any order, including a negative time no window holds.
        grid = [0.0]
        while len(grid) < 61:
            grid.append(grid[-1] + window_seconds if accumulated else len(grid) * window_seconds)
        requests = [
            Request(arrival_time=max(grid[k] + shift, -1e-12), slo_seconds=1.0, theta_per_tflop=1.0)
            for k in ticks
        ]
        self.assert_matches_scan(requests, window_seconds)
        self.assert_matches_scan(requests[::-1], window_seconds)

    def test_rejects_bad_rates(self):
        with pytest.raises(ValidationError):
            PoissonArrivals(0.0)
        with pytest.raises(ValidationError):
            MMPPArrivals(1.0, -1.0)
