"""The supergradient bound on Φ and the profile-polish pruning it drives.

Φ(L) is the accuracy Algorithm 2 reaches for energy profile L.  These
tests check that :func:`profile_supergradient`'s bound never falls
below Φ, that its one-sided slopes bracket Φ's finite differences, and
that pruning with it leaves every FR-OPT schedule bit-identical.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.algorithms.fractional as fractional
from repro.algorithms.fractional import solve_fractional
from repro.algorithms.naive_solution import NaiveSolution, compute_naive_solution, profile_supergradient
from repro.algorithms.refine_profile import _task_margins
from repro.core import ProblemInstance
from repro.core.profiles import EnergyProfile
from repro.core.schedule import Schedule
from repro.hardware import sample_uniform_cluster
from repro.telemetry import collector
from repro.workloads import TaskGenConfig, generate_tasks

from conftest import make_instance

#: (n, m, beta, seed) spanning n 20-160, m 2-8 and every benchmark beta.
CASES = [
    (20, 2, 0.3, 1),
    (35, 3, 0.5, 2),
    (60, 4, 0.8, 3),
    (80, 5, 0.3, 4),
    (110, 6, 0.5, 5),
    (160, 8, 0.8, 6),
]


def _instance(n, m, beta, seed) -> ProblemInstance:
    rng = np.random.default_rng(seed)
    return make_instance(n=n, m=m, beta=beta, seed=seed + 300, rho=float(rng.uniform(0.3, 1.5)))


def _phi(instance: ProblemInstance, limits: np.ndarray) -> tuple[float, NaiveSolution]:
    naive = compute_naive_solution(instance, EnergyProfile(limits))
    return Schedule(instance, naive.times).total_accuracy, naive


def _margin(acc: float) -> float:
    return fractional._BOUND_RTOL * max(abs(acc), 1.0)


def _candidates(instance: ProblemInstance, loads: np.ndarray, rng, count: int):
    """Random grants of unspent budget and donor→recipient transfers in P."""
    powers, d_max = instance.cluster.powers, instance.tasks.d_max
    m = loads.size
    leftover = max(instance.budget - float(loads @ powers), 0.0)
    for k in range(count):
        limits = loads.copy()
        r, q = rng.choice(m, 2, replace=False)
        if k % 3 == 0 or leftover > 0.0:
            limits[r] = min(loads[r] + rng.uniform(0.0, 1.0) * max(leftover / powers[r], 0.1 * d_max), d_max)
        else:
            energy = rng.uniform(0.0, 1.0) * min(loads[r] * powers[r], (d_max - loads[q]) * powers[q])
            limits[r] -= energy / powers[r]
            limits[q] += energy / powers[q]
        yield np.maximum(limits, 0.0)


class TestSoundness:
    @pytest.mark.parametrize("case", CASES, ids=lambda c: "n{}-m{}-b{}".format(*c[:3]))
    def test_bound_never_below_phi(self, case):
        instance = _instance(*case)
        rng = np.random.default_rng(case[3])
        loads = solve_fractional(instance)[0].machine_loads
        acc, naive = _phi(instance, loads)
        prices = profile_supergradient(instance, naive)
        assert prices is not None
        assert np.all(prices.g_lo >= 0.0) and np.all(prices.g_lo <= prices.g_hi)
        # The dual value is Φ(L) up to the binding tolerance.
        assert acc - _margin(acc) <= prices.value <= acc + 1e-9 * acc
        for limits in _candidates(instance, loads, rng, 18):
            assert _phi(instance, limits)[0] <= prices.bound(limits) + _margin(acc)

    @pytest.mark.parametrize("case", CASES[:4], ids=lambda c: "n{}-m{}-b{}".format(*c[:3]))
    def test_bound_from_any_profile(self, case):
        # A cut read at some other profile bounds Φ at the final loads.
        instance = _instance(*case)
        rng = np.random.default_rng(case[3] + 1)
        loads = solve_fractional(instance)[0].machine_loads
        best = _phi(instance, loads)[0]
        for limits in _candidates(instance, loads, rng, 6):
            acc, naive = _phi(instance, limits)
            prices = profile_supergradient(instance, naive)
            assert prices is not None
            assert best <= prices.bound(loads) + _margin(acc)

    def test_inconsistent_work_gives_no_bound(self):
        # No work at all: no prefix binds, yet every task still gains.
        instance = _instance(*CASES[0])
        naive = compute_naive_solution(instance)
        idle = NaiveSolution(naive.times * 0.0, naive.work * 0.0, naive.profile, naive.temp_deadlines)
        assert profile_supergradient(instance, idle) is None


def _reference_slopes(instance: ProblemInstance, naive: NaiveSolution):
    """``(g_lo, g_hi)`` from the definitions, one task and block at a time."""
    table = instance.tasks.segment_table
    n = instance.n_tasks
    gains, losses = [], []
    for j in range(n):
        k = int(table.n_segments[j])
        gain, loss, _, _ = _task_margins(
            float(naive.work[j]), table.breakpoints[j, : k + 1].tolist(), table.slopes[j, :k].tolist()
        )
        gains.append(gain)
        losses.append(loss)
    temp = naive.temp_deadlines
    slack = temp - np.cumsum(naive.work)
    binding = [j for j in range(n) if slack[j] <= 1e-9 * temp[j]]
    # Tasks after the last binding prefix cost 0; each block back from it
    # costs the most any task in it or after it still gains.
    prices = [0.0] * (n + 1)
    price = 0.0
    for start, last in reversed(list(zip([0] + [b + 1 for b in binding[:-1]], binding))):
        price = max(price, max(gains[start : last + 1]))
        for j in range(start, last + 1):
            prices[j] = price
    assert all(g <= 0.0 for g in gains[binding[-1] + 1 :])
    assert all(prices[j] <= losses[j] for j in range(n) if naive.work[j] > 0.0)
    pi = [prices[j] - prices[j + 1] for j in range(n)]
    caps = np.minimum(naive.profile.limits, instance.tasks.d_max)
    speeds, deadlines = instance.cluster.speeds, instance.tasks.deadlines
    g_lo = [s * sum(p for p, d in zip(pi, deadlines) if d > cap) for s, cap in zip(speeds, caps)]
    g_hi = [s * sum(p for p, d in zip(pi, deadlines) if d >= cap) for s, cap in zip(speeds, caps)]
    return np.array(g_lo), np.array(g_hi)


class TestSlopes:
    @pytest.mark.parametrize("case", CASES, ids=lambda c: "n{}-m{}-b{}".format(*c[:3]))
    def test_slopes_match_reference(self, case):
        instance = _instance(*case)
        rng = np.random.default_rng(case[3] + 3)
        loads = solve_fractional(instance)[0].machine_loads
        for limits in [loads, *_candidates(instance, loads, rng, 3)]:
            naive = compute_naive_solution(instance, EnergyProfile(limits))
            prices = profile_supergradient(instance, naive)
            g_lo, g_hi = _reference_slopes(instance, naive)
            # The reference sums the prefix prices; the array form reads
            # their telescoped total, so the two differ by rounding only.
            np.testing.assert_allclose(prices.g_lo, g_lo, rtol=1e-12, atol=1e-12 * g_hi.max())
            np.testing.assert_allclose(prices.g_hi, g_hi, rtol=1e-12, atol=1e-12 * g_hi.max())

    @pytest.mark.parametrize("case", CASES[:5], ids=lambda c: "n{}-m{}-b{}".format(*c[:3]))
    def test_slopes_bracket_finite_differences(self, case):
        instance = _instance(*case)
        rng = np.random.default_rng(case[3] + 2)
        d_max = instance.tasks.d_max
        loads = rng.uniform(0.2, 0.8, size=instance.n_machines) * d_max
        acc, naive = _phi(instance, loads)
        prices = profile_supergradient(instance, naive)
        assert prices is not None
        h = 1e-4 * d_max
        smooth = 0
        for r in range(instance.n_machines):
            step = np.zeros_like(loads)
            step[r] = h
            forward = (_phi(instance, loads + step)[0] - acc) / h
            backward = (acc - _phi(instance, loads - step)[0]) / h
            tol = 1e-6 * max(abs(backward), 1.0 / d_max) + 2.0 * _margin(acc) / h
            assert forward - tol <= prices.g_lo[r] <= prices.g_hi[r] <= backward + tol
            if abs(forward - backward) <= 1e-6 * abs(backward):
                smooth += 1
                assert prices.g_lo[r] == pytest.approx(forward, rel=1e-5)
                assert prices.g_hi[r] == pytest.approx(backward, rel=1e-5)
        assert smooth > 0


def _never_prunes(instance, naive):
    return None


def _workload_instance(n, m, beta, seed) -> ProblemInstance:
    cluster = sample_uniform_cluster(m, seed=seed)
    tasks = generate_tasks(TaskGenConfig(n=n, theta_range=(0.1, 1.0)), cluster, seed=seed + 100)
    return ProblemInstance.with_beta(tasks, cluster, beta)


#: solve-large-sized instances (n 100-160, m 5-8) next to small and
#: tight ones, where the polish accepts rounds.
EQUIVALENCE = [("workload", 100 + 12 * k, 5 + k % 4, (0.3, 0.5, 0.8)[k % 3], 40 + k) for k in range(6)] + [
    ("tight", 9 + k, 2 + k % 3, (0.3, 0.5, 0.8)[k % 3], 30 + k) for k in range(12)
]


def _candidate_counts(reg) -> dict:
    return {o: reg.counter("polish_candidates_total", outcome=o).value for o in ("evaluated", "pruned")}


class TestPruningIsExact:
    @pytest.mark.parametrize("case", EQUIVALENCE, ids=lambda c: "{}-n{}-m{}-b{}".format(*c[:4]))
    def test_schedules_match_unpruned_search(self, case, monkeypatch):
        kind, n, m, beta, seed = case
        if kind == "tight":
            instance = make_instance(n=n, m=m, beta=beta, seed=seed, rho=0.3)
        else:
            instance = _workload_instance(n, m, beta, seed)
        with collector() as reg:
            pruned, meta = solve_fractional(instance)
        monkeypatch.setattr(fractional, "profile_supergradient", _never_prunes)
        with collector() as full_reg:
            full, full_meta = solve_fractional(instance)
        assert [x.hex() for x in pruned.times.ravel()] == [x.hex() for x in full.times.ravel()]
        assert meta.keys() == full_meta.keys()
        for key in meta.keys() - {"polish_evaluations"}:
            assert np.array_equal(meta[key], full_meta[key]), key
        # Both searches consider the same candidates; pruning only skips
        # the Alg. 2 runs of some of them.
        counts, full_counts = _candidate_counts(reg), _candidate_counts(full_reg)
        assert full_counts["pruned"] == 0
        assert counts["evaluated"] + counts["pruned"] == full_counts["evaluated"]
        skipped = full_meta["polish_evaluations"] - meta["polish_evaluations"]
        assert skipped == counts["pruned"]

    def test_pruning_skips_candidates_on_large_instances(self):
        with collector() as reg:
            for _, n, m, beta, seed in EQUIVALENCE[:6]:
                solve_fractional(_workload_instance(n, m, beta, seed))
        counts = _candidate_counts(reg)
        assert counts["pruned"] > counts["evaluated"]

    def test_infinite_budget_skips_the_polish(self):
        finite = make_instance(n=6, m=2, seed=3)
        _, meta = solve_fractional(ProblemInstance(finite.tasks, finite.cluster, math.inf))
        assert meta["polish_evaluations"] == 0
