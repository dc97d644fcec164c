"""Array kernels of the solver, checked bit for bit against scalar references.

Each reference below is the plain per-element algorithm the kernel
replaces; the kernels must reproduce it exactly (``==``, not approx),
which is what keeps FR-OPT/APPROX schedules bit-identical.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.algorithms.naive_solution import WaterFiller, compute_naive_solution
from repro.algorithms.refine_profile import (
    _all_task_margins,
    _task_margins,
    deadline_slack,
    refine_profile,
)
from repro.algorithms.single_machine import solve_single_machine
from repro.core import PiecewiseLinearAccuracy, ProblemInstance, Task, TaskSet
from repro.hardware import sample_uniform_cluster
from repro.utils.errors import ValidationError
from repro.workloads import TaskGenConfig, generate_tasks

from conftest import make_instance, make_tasks

# -- water-filling --------------------------------------------------------------


def reference_tau(speeds, caps, work, tolerance=1e-7):
    """Per-query water level: binary search on the capacity curve's knots."""
    order = np.argsort(caps, kind="stable")
    caps_sorted, speeds_sorted = caps[order], speeds[order]
    suffix = np.concatenate([np.cumsum(speeds_sorted[::-1])[::-1], [0.0]])
    knot_work = np.zeros(caps_sorted.size + 1)
    prev = 0.0
    for k, cap in enumerate(caps_sorted):
        knot_work[k + 1] = knot_work[k] + suffix[k] * (cap - prev)
        prev = cap
    knot_tau = np.concatenate([[0.0], caps_sorted])
    max_work = float(knot_work[-1])
    if work <= 0.0:
        return 0.0
    if work >= max_work:
        if work > max_work * (1.0 + tolerance) + tolerance:
            raise ValidationError("over capacity")
        return float(caps_sorted[-1])
    k = max(int(np.searchsorted(knot_work, work, side="left")) - 1, 0)
    if suffix[k] <= 0.0:
        return float(knot_tau[k + 1])
    return float(knot_tau[k] + (work - knot_work[k]) / suffix[k])


def _cluster(seed, m, duplicate=False):
    rng = np.random.default_rng(seed)
    speeds = rng.uniform(1e12, 2e13, m)
    caps = rng.uniform(0.0, 3.0, m)
    if duplicate:
        caps[: m // 2 + 1] = caps[0]  # plateau: several machines stop together
    return speeds, caps


class TestWaterFiller:
    @pytest.mark.parametrize("duplicate", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_taus_match_scalar_reference(self, seed, duplicate):
        speeds, caps = _cluster(seed, 2 + seed % 6, duplicate)
        filler = WaterFiller(speeds, caps)
        rng = np.random.default_rng(100 + seed)
        knots = np.cumsum(np.sort(caps)) * speeds.mean()  # near the curve's kinks
        work = np.concatenate(
            [rng.uniform(-0.1, 1.0, 40) * filler.capacity, knots[knots < filler.capacity], [0.0, -1.0]]
        )
        got = filler.taus(work)
        want = np.array([reference_tau(speeds, caps, w) for w in work])
        assert np.array_equal(got, want)
        assert [filler.tau(w) for w in work] == want.tolist()

    def test_zero_and_negative_work_need_no_time(self):
        filler = WaterFiller(np.array([1e12, 2e12]), np.array([1.0, 2.0]))
        assert filler.taus(np.array([0.0, -5.0, -0.0])).tolist() == [0.0, 0.0, 0.0]

    def test_overshoot_within_tolerance_clamps_to_largest_cap(self):
        speeds, caps = np.array([1e12, 3e12]), np.array([0.5, 1.5])
        filler = WaterFiller(speeds, caps)
        over = filler.capacity * (1.0 + 5e-8)
        assert filler.taus(np.array([filler.capacity, over])).tolist() == [1.5, 1.5]
        assert filler.tau(over) == reference_tau(speeds, caps, over)

    def test_over_capacity_raises(self):
        filler = WaterFiller(np.array([1e12, 3e12]), np.array([0.5, 1.5]))
        with pytest.raises(ValidationError):
            filler.taus(np.array([0.1, filler.capacity * 1.01]))
        with pytest.raises(ValidationError):
            filler.tau(filler.capacity * 1.01)

    def test_zero_capacity(self):
        filler = WaterFiller(np.array([1e12, 3e12]), np.array([0.0, 0.0]))
        assert filler.taus(np.array([0.0, 1e-9])).tolist() == [0.0, 0.0]
        with pytest.raises(ValidationError):
            filler.taus(np.array([1.0]))


# -- accuracy evaluation ----------------------------------------------------------


def _ragged_tasks():
    funcs = [
        PiecewiseLinearAccuracy.single_segment(2e-13, 1e12, a_min=0.1),
        PiecewiseLinearAccuracy.from_slopes([3e-13, 1e-13, 5e-14], [1e12, 1e12, 2e12], 0.001),
        PiecewiseLinearAccuracy([0.0, 1e12, 3e12], [0.2, 0.5, 0.5]),  # flat tail
    ]
    return TaskSet([Task(1.0 + j, acc) for j, acc in enumerate(funcs)], assume_sorted=True)


def reference_margins(acc, flops):
    """RefineProfile's per-task gain, loss and rooms via the accuracy methods."""
    f = min(max(flops, 0.0), acc.f_max)
    bp = acc.breakpoints
    k_near = int(np.searchsorted(bp, f))
    for k_cand in (k_near - 1, k_near):
        if 0 <= k_cand < bp.size and abs(f - bp[k_cand]) <= 1e-9 * acc.f_max:
            f = float(bp[k_cand])
            break
    next_room = 0.0 if f >= acc.f_max else bp[acc.segment_index(f) + 1] - f
    if f <= 0.0:
        prev_room = 0.0
    else:
        k = min(max(int(np.searchsorted(bp, f, side="left")) - 1, 0), acc.n_segments - 1)
        prev_room = f - bp[k]
    return acc.marginal_gain(f), acc.marginal_loss(f), float(next_room), float(prev_room)


class TestTaskSetAccuracies:
    """Accuracy evaluation and marginals in array/list form against the per-task methods."""

    @pytest.mark.parametrize("tasks", [make_tasks(n=9, seed=4), _ragged_tasks()], ids=["fitted", "ragged"])
    def test_matches_per_task_value_exactly(self, tasks):
        rng = np.random.default_rng(7)
        f_max = tasks.f_max
        probes = [-1.0 * f_max, np.zeros(len(tasks)), -0.0 * f_max, f_max, 2.0 * f_max]
        probes += [rng.uniform(0.0, 1.0, len(tasks)) * f_max for _ in range(50)]
        k_max = max(t.accuracy.n_segments for t in tasks)
        for k in range(k_max + 1):  # every breakpoint of every task
            probes.append(np.array([t.accuracy.breakpoints[min(k, t.accuracy.n_segments)] for t in tasks]))
        for flops in probes:
            got = tasks.accuracies(flops)
            want = [t.accuracy.value(f) for t, f in zip(tasks, flops)]
            assert got.tolist() == want

    @pytest.mark.parametrize("tasks", [make_tasks(n=9, seed=4), _ragged_tasks()], ids=["fitted", "ragged"])
    def test_marginals_match_per_task_methods_exactly(self, tasks):
        rng = np.random.default_rng(8)
        f_max = tasks.f_max
        table = tasks.segment_table
        probes = [-1.0 * f_max, np.zeros(len(tasks)), f_max, 2.0 * f_max]
        probes += [rng.uniform(0.0, 1.0, len(tasks)) * f_max for _ in range(50)]
        for k in range(max(t.accuracy.n_segments for t in tasks) + 1):
            probes.append(np.array([t.accuracy.breakpoints[min(k, t.accuracy.n_segments)] for t in tasks]))
        for flops in probes:
            assert table.marginal_gains(flops).tolist() == [
                t.accuracy.marginal_gain(f) for t, f in zip(tasks, flops)
            ]
            assert table.marginal_losses(flops).tolist() == [
                t.accuracy.marginal_loss(f) for t, f in zip(tasks, flops)
            ]

    @pytest.mark.parametrize("tasks", [make_tasks(n=9, seed=4), _ragged_tasks()], ids=["fitted", "ragged"])
    def test_refine_margins_match_accuracy_methods_exactly(self, tasks):
        rng = np.random.default_rng(9)
        for task in tasks:
            acc = task.accuracy
            bp = acc.breakpoints
            probes = [-1.0, 0.0, acc.f_max, 2.0 * acc.f_max, *bp.tolist()]
            probes += [float(b) * (1.0 + s) for b in bp[1:] for s in (-1e-10, 1e-10, -1e-6)]
            probes += rng.uniform(0.0, acc.f_max, 30).tolist()
            for flops in probes:
                got = _task_margins(flops, bp.tolist(), acc.slopes.tolist())
                assert got == reference_margins(acc, flops)

    @pytest.mark.parametrize("tasks", [make_tasks(n=9, seed=4), _ragged_tasks()], ids=["fitted", "ragged"])
    def test_all_refine_margins_match_per_task_exactly(self, tasks):
        table = tasks.segment_table
        rng = np.random.default_rng(10)
        f_max = tasks.f_max
        probes = [-1.0 * f_max, np.zeros(len(tasks)), f_max, 2.0 * f_max]
        probes += [rng.uniform(-0.1, 1.1, len(tasks)) * f_max for _ in range(50)]
        for k in range(table.breakpoints.shape[1]):  # on, and within dust of, every breakpoint
            at = np.minimum(table.breakpoints[:, k], f_max)
            probes += [at * (1.0 + s) for s in (0.0, -1e-10, 1e-10, -1e-6, 1e-6)]
        for flops in probes:
            got = np.column_stack(_all_task_margins(table, flops))
            want = [
                _task_margins(float(f), table.breakpoints[j, : k + 1].tolist(), table.slopes[j, :k].tolist())
                for j, (f, k) in enumerate(zip(flops, table.n_segments))
            ]
            assert got.tolist() == [list(row) for row in want]

    def test_nan_work_gives_nan(self):
        tasks = make_tasks(n=2)
        assert np.isnan(tasks.accuracies([math.nan, 0.0])[0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValidationError):
            make_tasks(n=3).accuracies([1.0, 2.0])


# -- Algorithm 1 --------------------------------------------------------------------


def reference_single_machine(tasks, deadlines, speed, total_cap=math.inf):
    """Algorithm 1 one segment record at a time, with a suffix-min per segment."""
    records = sorted(
        (-seg.slope, j, seg.position, seg.total_flops)
        for j, task in enumerate(tasks)
        for seg in task.accuracy.segments()
    )
    t = np.zeros(len(deadlines))
    slack_arr = np.asarray(deadlines, dtype=float).copy()
    used_total = 0.0
    for neg_slope, j, _, total_flops in records:
        if -neg_slope <= 0.0:
            break
        wanted = total_flops / speed
        slack = float(slack_arr[j:].min())
        if math.isfinite(total_cap):
            slack = min(slack, total_cap - used_total)
        contribution = min(wanted, max(slack, 0.0))
        if contribution <= 0.0:
            continue
        t[j] += contribution
        slack_arr[j:] -= contribution
        used_total += contribution
    return t


class TestSingleMachineKernel:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_reference_bit_for_bit(self, seed):
        n = 3 + 7 * seed
        # Tight deadlines make many of them bind, exercising the blocked
        # prefix and the exact slack folds near binding.
        tasks = make_tasks(n=n, seed=seed, deadline_range=(0.05, 0.5 + seed / 4))
        for total_cap in (math.inf, 0.25 * tasks.d_max, 0.9 * tasks.d_max):
            got = solve_single_machine(tasks.deadlines, 1e12, tasks.segment_table, total_cap=total_cap)
            want = reference_single_machine(tasks, tasks.deadlines, 1e12, total_cap)
            assert np.array_equal(got, want)

    def test_zero_deadline_prefix(self):
        """Zero capacity before some deadline (a machine with no profile)."""
        tasks = make_tasks(n=8, seed=3)
        deadlines = np.concatenate([np.zeros(3), 0.7 * np.cumsum(tasks.f_max[3:])])  # FLOP
        got = solve_single_machine(deadlines, 1.0, tasks.segment_table)
        want = reference_single_machine(tasks, deadlines, 1.0)
        assert np.array_equal(got, want)
        assert np.all(got[:3] == 0.0) and np.all(got[3:] > 0.0)

    def test_flop_units_and_loose_deadlines(self):
        tasks = make_tasks(n=40, seed=9, deadline_range=(100.0, 200.0))
        deadlines = tasks.deadlines * 1e12  # Algorithm 2's FLOP-unit deadlines
        got = solve_single_machine(deadlines, 1.0, tasks.segment_table)
        assert np.array_equal(got, reference_single_machine(tasks, deadlines, 1.0))


# -- Algorithm 3 --------------------------------------------------------------------


def reference_refine_profile(instance, times, max_iterations=None):
    """RefineProfile rebuilding every (n, m) and (n, m, m) array each iteration."""
    tasks, cluster = instance.tasks, instance.cluster
    n, m = instance.n_tasks, instance.n_machines
    t = np.asarray(times, dtype=float).copy()
    speeds, powers, effs = cluster.speeds, cluster.powers, cluster.efficiencies
    deadlines, budget = tasks.deadlines, instance.budget
    table = tasks.segment_table
    if max_iterations is None:
        max_iterations = 50 * (len(table) * m + n * m + 10)
    counts = table.n_segments.tolist()
    points = [row[: k + 1] for row, k in zip(table.breakpoints.tolist(), counts)]
    pieces = [row[:k] for row, k in zip(table.slopes.tolist(), counts)]
    if math.isfinite(budget) and budget > 0:
        energy_scale = budget
    else:
        energy_scale = float(t.sum(axis=0) @ powers) or 1.0
    eps_energy = 1e-12 * max(energy_scale, 1.0)
    psi_rtol = 1e-9

    gains, losses, next_room, prev_room = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    iterations = 0
    converged = False
    while iterations < max_iterations:
        iterations += 1
        flops = t @ speeds
        for j in range(n):
            gains[j], losses[j], next_room[j], prev_room[j] = _task_margins(float(flops[j]), points[j], pieces[j])
        slack = deadline_slack(t, deadlines)
        grow_energy = np.minimum(slack * powers[None, :], next_room[:, None] / effs[None, :])
        psi_grow = gains[:, None] * effs[None, :]
        growable = (grow_energy > eps_energy) & (psi_grow > 0.0)
        shrink_energy = np.minimum(t * powers[None, :], prev_room[:, None] / effs[None, :])
        psi_shrink = losses[:, None] * effs[None, :]
        shrinkable = shrink_energy > eps_energy
        unused = math.inf if math.isinf(budget) else budget - float(t.sum(axis=0) @ powers)

        moved = False
        if unused > eps_energy and np.any(growable):
            masked = np.where(growable, psi_grow, -np.inf)
            j, r = np.unravel_index(int(np.argmax(masked)), masked.shape)
            delta_e = min(unused, float(grow_energy[j, r]))
            if delta_e > eps_energy:
                t[j, r] += delta_e / powers[r]
                moved = True
        if not moved and np.any(growable) and np.any(shrinkable):
            masked_g = np.where(growable, psi_grow, -np.inf)
            jg, rg = np.unravel_index(int(np.argmax(masked_g)), masked_g.shape)
            masked_s = np.where(shrinkable, psi_shrink, np.inf)
            masked_s[jg, rg] = np.inf
            js, rs = np.unravel_index(int(np.argmin(masked_s)), masked_s.shape)
            psi_g, psi_s = float(psi_grow[jg, rg]), float(masked_s[js, rs])
            if math.isfinite(psi_s) and psi_g > psi_s * (1.0 + psi_rtol) + psi_rtol:
                delta_e = min(float(grow_energy[jg, rg]), float(shrink_energy[js, rs]))
                if delta_e > eps_energy:
                    t[jg, rg] += delta_e / powers[rg]
                    t[js, rs] -= delta_e / powers[rs]
                    if t[js, rs] < 0.0:
                        t[js, rs] = 0.0
                    moved = True
        if not moved:
            df = np.minimum((t * speeds)[:, :, None], (slack * speeds)[:, None, :])  # (n, src, dst)
            rate = 1.0 / effs[:, None] - 1.0 / effs[None, :]
            saving = df * np.where(rate > 0.0, rate, 0.0)[None, :, :]
            idx = int(np.argmax(saving))
            if saving.flat[idx] > eps_energy:
                j, r_src, r_dst = np.unravel_index(idx, saving.shape)
                moved_flops = float(df[j, r_src, r_dst])
                t[j, r_src] -= moved_flops / speeds[r_src]
                if t[j, r_src] < 0.0:
                    t[j, r_src] = 0.0
                t[j, r_dst] += moved_flops / speeds[r_dst]
                moved = True
        if not moved:
            converged = True
            break
    return t, iterations, converged


def _workload_instance(n, m, beta, seed):
    cluster = sample_uniform_cluster(m, seed=seed)
    tasks = generate_tasks(TaskGenConfig(n=n, theta_range=(0.1, 1.0)), cluster, seed=seed + 100)
    if beta is None:
        return ProblemInstance(tasks, cluster, math.inf)
    return ProblemInstance.with_beta(tasks, cluster, beta)


class TestRefineProfileKernel:
    """The incremental RefineProfile against the full rebuild, bit for bit."""

    @staticmethod
    def _assert_matches(instance, times, max_iterations=None):
        got = refine_profile(instance, times, max_iterations=max_iterations)
        want_times, want_iterations, want_converged = reference_refine_profile(instance, times, max_iterations)
        assert got.times.tolist() == want_times.tolist()
        assert (got.iterations, got.converged) == (want_iterations, want_converged)
        return got

    @pytest.mark.parametrize("beta", [0.05, 0.3, 0.8, None, 0.0], ids=["b005", "b03", "b08", "inf", "zero"])
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_workloads(self, seed, beta):
        n, m = 20 + 13 * seed, 2 + 2 * seed
        instance = _workload_instance(n, m, beta, seed)
        self._assert_matches(instance, compute_naive_solution(instance).times)

    @pytest.mark.parametrize("m", [1, 8])
    @pytest.mark.parametrize("beta", [0.3, 0.8, None])
    def test_one_and_eight_machines(self, m, beta):
        instance = _workload_instance(60, m, beta, 11 + m)
        self._assert_matches(instance, compute_naive_solution(instance).times)

    @pytest.mark.parametrize("n, seed", [(9, 41), (12, 35)])
    def test_golden_tight_polish_instances(self, n, seed):
        instance = make_instance(n=n, m=3, beta=0.8, seed=seed, rho=0.3)
        self._assert_matches(instance, compute_naive_solution(instance).times)

    @pytest.mark.parametrize("seed", range(3))
    def test_from_a_starved_start(self, seed):
        """Half the naive times: every phase runs many times before convergence."""
        instance = _workload_instance(40, 3 + seed, 0.5, 20 + seed)
        result = self._assert_matches(instance, 0.5 * compute_naive_solution(instance).times)
        assert result.iterations > 5

    def test_iteration_cut_off(self):
        instance = _workload_instance(40, 4, 0.5, 21)
        start = 0.5 * compute_naive_solution(instance).times
        full = self._assert_matches(instance, start)
        for limit in (0, 1, full.iterations // 2, full.iterations - 1):
            cut = self._assert_matches(instance, start, max_iterations=limit)
            assert cut.iterations == limit and not cut.converged
