"""Micro-benchmarks of the core algorithms (not a paper artefact).

Classic pytest-benchmark timing of the individual building blocks at a
representative size, so performance regressions in the algorithms are
caught independently of the figure-level sweeps.
"""

import numpy as np
import pytest

from repro.algorithms import (
    compute_naive_solution,
    refine_profile,
    round_fractional,
    solve_fractional,
)
from repro.algorithms.single_machine import solve_single_machine
from repro.core.segments import build_segment_list
from repro.core.serialization import instance_from_dict, instance_to_dict
from repro.exact import solve_lp_relaxation
from repro.workloads import runtime_instance, tasks_from_thetas

N, M = 100, 5


@pytest.fixture(scope="module")
def instance():
    return runtime_instance(N, M, seed=7)


def test_bench_single_machine(benchmark, instance):
    deadlines = instance.tasks.deadlines

    def run():
        segments = build_segment_list(instance.tasks)
        return solve_single_machine(deadlines, 1.0, segments)

    benchmark(run)


def test_bench_compute_naive_solution(benchmark, instance):
    benchmark(lambda: compute_naive_solution(instance))


def test_bench_refine_profile(benchmark, instance):
    naive = compute_naive_solution(instance)
    benchmark(lambda: refine_profile(instance, naive.times))


def test_bench_solve_fractional(benchmark, instance):
    benchmark(lambda: solve_fractional(instance))


def test_bench_round_fractional(benchmark, instance):
    fractional, _ = solve_fractional(instance)
    benchmark(lambda: round_fractional(instance, fractional))


def test_bench_lp_relaxation(benchmark, instance):
    benchmark(lambda: solve_lp_relaxation(instance))


def test_bench_tasks_from_thetas(benchmark):
    # One online window's task build: 120 requests, θ and deadlines as
    # the rolling-horizon planner passes them.
    rng = np.random.default_rng(7)
    thetas = rng.uniform(0.1, 2.0, 120).tolist()
    deadlines = rng.uniform(0.05, 2.0, 120).tolist()
    benchmark(lambda: tasks_from_thetas(thetas, deadlines))


def test_bench_instance_from_dict(benchmark):
    # A /solve request body at the solve-large workload's upper size.
    document = instance_to_dict(runtime_instance(140, M, seed=7))
    benchmark(lambda: instance_from_dict(document))
