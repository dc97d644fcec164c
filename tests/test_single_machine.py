"""Algorithm 1 — the single-machine fractional greedy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.single_machine import solve_single_machine
from repro.core import PiecewiseLinearAccuracy, Task, TaskSet
from repro.core.segments import build_segment_list
from repro.utils.errors import ValidationError

from conftest import make_tasks


def greedy(tasks, speed=1e12, total_cap=math.inf):
    """Times and per-segment granted FLOP (table order)."""
    table = build_segment_list(tasks)
    used = np.zeros(len(table))
    times = solve_single_machine(tasks.deadlines, speed, table, total_cap=total_cap, used=used)
    return times, (table, used)


def task_used_flops(granted):
    table, used = granted
    return table.task_totals(used)


class TestBasics:
    def test_single_task_fills_to_deadline_or_fmax(self):
        tasks = make_tasks(n=1, seed=1)
        speed = 1e12
        times, _ = greedy(tasks, speed)
        expected = min(tasks[0].deadline, tasks[0].f_max / speed)
        assert times[0] == pytest.approx(expected)

    def test_prefix_deadlines_respected(self):
        tasks = make_tasks(n=6, seed=2)
        times, _ = greedy(tasks)
        prefix = np.cumsum(times)
        assert np.all(prefix <= tasks.deadlines + 1e-9)

    def test_total_cap_acts_as_global_deadline(self):
        tasks = make_tasks(n=6, seed=2)
        cap = 0.3 * tasks.d_max
        times, _ = greedy(tasks, total_cap=cap)
        assert times.sum() <= cap * (1 + 1e-12)

    def test_zero_cap_gives_zero_schedule(self):
        tasks = make_tasks(n=3, seed=2)
        times, _ = greedy(tasks, total_cap=0.0)
        assert np.allclose(times, 0.0)

    def test_negative_cap_raises(self):
        tasks = make_tasks(n=2, seed=2)
        with pytest.raises(ValidationError):
            greedy(tasks, total_cap=-1.0)

    def test_work_caps_respected(self):
        tasks = make_tasks(n=4, seed=3, deadline_range=(100.0, 200.0))
        speed = 1e12
        times, _ = greedy(tasks, speed)
        assert np.all(times * speed <= tasks.f_max * (1 + 1e-12))

    def test_segments_account_for_times(self):
        tasks = make_tasks(n=5, seed=4)
        speed = 1e12
        times, granted = greedy(tasks, speed)
        used = task_used_flops(granted)
        assert np.allclose(used, times * speed, rtol=1e-9, atol=1.0)

    def test_segment_ordering_invariant(self):
        """Within a task, segment k is only used after k-1 is full."""
        tasks = make_tasks(n=5, seed=5)
        _, (table, used) = greedy(tasks)
        for j in range(len(tasks)):
            rows = np.flatnonzero(table.task == j)
            rows = rows[np.argsort(table.position[rows])]
            for earlier, later in zip(rows, rows[1:]):
                if used[later] > 1e-6:
                    width = table.width[earlier]
                    assert width - used[earlier] <= 1e-9 * max(width, 1.0)

    def test_rejects_unsorted_deadlines(self):
        with pytest.raises(ValidationError):
            solve_single_machine([2.0, 1.0], 1.0, build_segment_list(make_tasks(n=2)))

    def test_rejects_segment_task_out_of_range(self):
        table = build_segment_list(make_tasks(n=6))  # segments of tasks 0..5
        with pytest.raises(ValidationError):
            solve_single_machine([1.0], 1.0, table)

    def test_skips_nonpositive_slopes(self):
        flat = PiecewiseLinearAccuracy([0.0, 10.0], [0.5, 0.5])
        table = build_segment_list(TaskSet([Task(1.0, flat)]))
        times = solve_single_machine([1.0], 1.0, table)
        assert times[0] == 0.0


class TestOptimality:
    """Greedy vs. brute-force LP on tiny instances."""

    def _lp_optimum(self, tasks, speed, total_cap=math.inf):
        from scipy.optimize import linprog

        n = len(tasks)
        # variables: time per (task, segment)
        cols = []
        slopes = []
        for j, task in enumerate(tasks):
            for seg in task.accuracy.segments():
                cols.append((j, seg))
                slopes.append(seg.slope * speed)
        c = -np.asarray(slopes)
        a_ub, b_ub = [], []
        # prefix deadlines
        for j in range(n):
            row = [1.0 if cj <= j else 0.0 for cj, _ in cols]
            a_ub.append(row)
            b_ub.append(tasks.deadlines[j])
        if math.isfinite(total_cap):
            a_ub.append([1.0] * len(cols))
            b_ub.append(total_cap)
        bounds = [(0.0, seg.total_flops / speed) for _, seg in cols]
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
        assert res.status == 0
        base = sum(t.a_min for t in tasks)
        return base - res.fun

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_lp(self, seed):
        tasks = make_tasks(n=4, seed=seed)
        times, granted = greedy(tasks)
        accuracy = sum(task.accuracy.value(f) for task, f in zip(tasks, task_used_flops(granted)))
        lp = self._lp_optimum(tasks, 1e12)
        assert accuracy == pytest.approx(lp, rel=1e-7, abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_lp_with_cap(self, seed):
        tasks = make_tasks(n=4, seed=seed + 50)
        cap = 0.4 * tasks.d_max
        times, granted = greedy(tasks, total_cap=cap)
        accuracy = sum(task.accuracy.value(f) for task, f in zip(tasks, task_used_flops(granted)))
        lp = self._lp_optimum(tasks, 1e12, total_cap=cap)
        assert accuracy == pytest.approx(lp, rel=1e-7, abs=1e-9)

    @pytest.mark.parametrize("cap_frac", [None, 0.3, 0.8])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_lp_with_binding_deadlines(self, seed, cap_frac):
        """Many deadlines bind: the blocked prefix and exact slack folds run."""
        tasks = make_tasks(n=12, seed=seed + 80, deadline_range=(0.05, 0.6))
        cap = math.inf if cap_frac is None else cap_frac * tasks.d_max
        times, granted = greedy(tasks, total_cap=cap)
        accuracy = sum(task.accuracy.value(f) for task, f in zip(tasks, task_used_flops(granted)))
        lp = self._lp_optimum(tasks, 1e12, total_cap=cap)
        assert accuracy == pytest.approx(lp, rel=1e-7, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 8), st.floats(0.05, 2.0))
def test_property_feasible_for_any_input(seed, n, cap_frac):
    tasks = make_tasks(n=n, seed=seed)
    cap = cap_frac * tasks.d_max
    times = solve_single_machine(tasks.deadlines, 1e12, build_segment_list(tasks), total_cap=cap)
    prefix = np.cumsum(times)
    assert np.all(times >= 0)
    assert np.all(prefix <= tasks.deadlines + 1e-9)
    assert times.sum() <= cap * (1 + 1e-9)
    assert np.all(times * 1e12 <= tasks.f_max * (1 + 1e-9))
