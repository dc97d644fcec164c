"""Schedules and the feasibility audit (violation injection)."""

import numpy as np
import pytest

from repro.core.schedule import Schedule
from repro.utils.errors import ValidationError

from conftest import make_instance


@pytest.fixture
def inst():
    return make_instance(n=4, m=2, beta=0.5, rho=0.8, seed=9)


class TestConstruction:
    def test_empty_is_feasible(self, inst):
        sched = Schedule.empty(inst)
        assert sched.feasibility().feasible
        assert sched.total_energy == 0.0

    def test_rejects_bad_shape(self, inst):
        with pytest.raises(ValidationError):
            Schedule(inst, np.zeros((2, 2)))

    def test_dust_clamped(self, inst):
        times = np.zeros((4, 2))
        times[0, 0] = -1e-12
        sched = Schedule(inst, times)
        assert sched.times[0, 0] == 0.0

    def test_times_readonly(self, inst):
        sched = Schedule.empty(inst)
        with pytest.raises(ValueError):
            sched.times[0, 0] = 1.0


class TestDerived:
    def test_task_flops(self, inst):
        times = np.zeros((4, 2))
        times[1, 0] = 0.5
        sched = Schedule(inst, times)
        assert sched.task_flops[1] == pytest.approx(0.5 * inst.cluster.speeds[0])

    def test_total_accuracy_empty_is_amin_sum(self, inst):
        sched = Schedule.empty(inst)
        expected = sum(t.a_min for t in inst.tasks)
        assert sched.total_accuracy == pytest.approx(expected)

    def test_accuracy_error_complement(self, inst):
        sched = Schedule.empty(inst)
        assert sched.accuracy_error == pytest.approx(inst.n_tasks - sched.total_accuracy)

    def test_derived_arrays_cached_read_only_and_fresh(self, inst):
        times = np.random.default_rng(3).uniform(0.0, 0.2, (4, 2))
        sched = Schedule(inst, times)
        flops = times @ inst.cluster.speeds
        fresh = {
            "task_flops": flops,
            "task_accuracies": inst.tasks.accuracies(flops),
            "machine_loads": times.sum(axis=0),
        }
        for name, want in fresh.items():
            got = getattr(sched, name)
            assert got is getattr(sched, name)  # computed once
            assert got.tolist() == want.tolist()
            with pytest.raises(ValueError):
                got[0] = 1.0
        assert sched.total_accuracy == float(fresh["task_accuracies"].sum())
        assert sched.total_energy == float((fresh["machine_loads"] * inst.cluster.powers).sum())

    def test_machine_loads_and_energy(self, inst):
        times = np.full((4, 2), 0.1)
        sched = Schedule(inst, times)
        assert np.allclose(sched.machine_loads, [0.4, 0.4])
        assert sched.total_energy == pytest.approx(0.4 * inst.cluster.total_power)

    def test_start_completion_consistency(self, inst):
        times = np.abs(np.random.default_rng(0).normal(size=(4, 2))) * 0.01
        sched = Schedule(inst, times)
        assert np.allclose(sched.completion_times - sched.start_times, sched.times)
        # starts are non-decreasing down each machine column
        assert np.all(np.diff(sched.start_times, axis=0) >= -1e-15)

    def test_assigned_machine_integral(self, inst):
        times = np.zeros((4, 2))
        times[0, 1] = 0.1
        times[2, 0] = 0.2
        sched = Schedule(inst, times)
        assert sched.is_integral
        assert list(sched.assigned_machine) == [1, -1, 0, -1]

    def test_assigned_machine_fractional_raises(self, inst):
        times = np.full((4, 2), 0.01)
        sched = Schedule(inst, times)
        assert not sched.is_integral
        with pytest.raises(ValidationError):
            _ = sched.assigned_machine


class TestAuditInjection:
    """Each constraint violation must be detected and attributed."""

    def test_detects_deadline_violation(self, inst):
        times = np.zeros((4, 2))
        times[0, 0] = inst.tasks.deadlines[0] * 1.5
        report = Schedule(inst, times).feasibility()
        assert not report.feasible
        assert any(v.kind == "deadline" and v.task == 0 for v in report.violations)

    def test_detects_prefix_deadline_violation(self, inst):
        # Task 1 individually fits but task 0's time pushes it past d_1.
        d = inst.tasks.deadlines
        times = np.zeros((4, 2))
        times[0, 0] = d[0]
        times[1, 0] = (d[1] - d[0]) + 0.5 * d[1]
        report = Schedule(inst, times).feasibility()
        assert any(v.kind == "deadline" and v.task == 1 for v in report.violations)

    def test_detects_work_cap_violation(self, inst):
        times = np.zeros((4, 2))
        # More work than f_max but within the deadline? Use a tiny deadline
        # margin: force via huge speed usage on both machines.
        times[3, :] = inst.tasks.f_max[3] / inst.cluster.speeds  # 2x f_max total
        report = Schedule(inst, times).feasibility()
        assert any(v.kind == "work_cap" and v.task == 3 for v in report.violations)

    def test_detects_budget_violation(self):
        inst = make_instance(n=4, m=2, beta=0.01, rho=0.8, seed=9)
        times = np.full((4, 2), inst.tasks.deadlines[0] / 8)
        report = Schedule(inst, times).feasibility()
        assert any(v.kind == "budget" for v in report.violations)

    def test_detects_negative_time(self, inst):
        times = np.zeros((4, 2))
        times[2, 1] = -0.5
        report = Schedule(inst, times).feasibility()
        assert any(v.kind == "negative_time" and v.task == 2 for v in report.violations)

    def test_detects_assignment_violation_when_integral(self, inst):
        times = np.full((4, 2), 1e-4)
        report = Schedule(inst, times).feasibility(integral=True)
        assert any(v.kind == "assignment" for v in report.violations)

    def test_fractional_mode_allows_multi_machine(self, inst):
        times = np.full((4, 2), 1e-6)
        report = Schedule(inst, times).feasibility(integral=False)
        assert report.feasible

    def test_summary_mentions_violation(self, inst):
        times = np.zeros((4, 2))
        times[0, 0] = inst.tasks.deadlines[0] * 2
        report = Schedule(inst, times).feasibility()
        assert "deadline" in report.summary()

    def test_report_bool(self, inst):
        assert bool(Schedule.empty(inst).feasibility())
