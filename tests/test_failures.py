"""Failure injection on schedule replays."""

import math

import numpy as np
import pytest

from repro.algorithms import ApproxScheduler
from repro.simulator import FailureModel, Outage, Slowdown, replay_with_failures
from repro.simulator.failures import replay_with_duration_noise
from repro.utils.errors import ValidationError

from conftest import make_instance


@pytest.fixture(scope="module")
def case():
    inst = make_instance(n=10, m=2, beta=0.6, seed=160)
    sched = ApproxScheduler().solve(inst)
    return inst, sched


class TestModels:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Outage(machine=0, at=-1.0)
        with pytest.raises(ValidationError):
            Slowdown(machine=0, at=0.0, factor=0.0)
        with pytest.raises(ValidationError):
            Slowdown(machine=0, at=0.0, factor=1.5)
        with pytest.raises(ValidationError):
            FailureModel(outages=(Outage(0, 1.0), Outage(0, 2.0)))

    def test_lookup(self):
        fm = FailureModel(outages=(Outage(1, 3.0),), slowdowns=(Slowdown(0, 1.0, 0.5),))
        assert fm.outage_at(1) == 3.0
        assert math.isinf(fm.outage_at(0))
        assert fm.slowdown_for(0).factor == 0.5
        assert fm.slowdown_for(1) is None

    def test_machine_out_of_range(self, case):
        inst, sched = case
        with pytest.raises(ValidationError):
            replay_with_failures(inst, sched, FailureModel(outages=(Outage(99, 0.0),)))


class TestNoFailures:
    def test_matches_nominal(self, case):
        inst, sched = case
        report = replay_with_failures(inst, sched, FailureModel())
        assert report.total_accuracy == pytest.approx(sched.total_accuracy, rel=1e-9)
        assert report.energy == pytest.approx(sched.total_energy, rel=1e-9)
        assert not report.deadline_misses
        assert not report.truncated_tasks


class TestOutages:
    def test_outage_at_zero_kills_machine(self, case):
        inst, sched = case
        report = replay_with_failures(inst, sched, FailureModel(outages=(Outage(0, 0.0),)))
        assert report.machine_busy[0] == 0.0
        # everything that was on machine 0 is truncated
        on_m0 = {j for j in range(inst.n_tasks) if sched.times[j, 0] > 0}
        assert on_m0 <= set(report.truncated_tasks)

    def test_outage_never_helps(self, case):
        inst, sched = case
        for at in (0.0, 0.1, 0.5):
            report = replay_with_failures(inst, sched, FailureModel(outages=(Outage(0, at),)))
            assert report.total_accuracy <= sched.total_accuracy + 1e-9

    def test_later_outage_hurts_less(self, case):
        inst, sched = case
        horizon = float(sched.machine_loads[0])
        accs = [
            replay_with_failures(
                inst, sched, FailureModel(outages=(Outage(0, frac * horizon),))
            ).total_accuracy
            for frac in (0.0, 0.5, 1.0)
        ]
        assert accs[0] <= accs[1] + 1e-9 <= accs[2] + 2e-9

    def test_partial_credit_mid_share(self, case):
        inst, sched = case
        # cut the first share on machine 0 in half
        j0 = int(np.nonzero(sched.times[:, 0] > 0)[0][0])
        half = 0.5 * float(sched.times[j0, 0])
        report = replay_with_failures(inst, sched, FailureModel(outages=(Outage(0, half),)))
        expected = half * inst.cluster.speeds[0] + sched.times[j0, 1] * inst.cluster.speeds[1]
        assert report.task_flops[j0] == pytest.approx(expected, rel=1e-9)


class TestSlowdowns:
    def test_full_slowdown_stretches_everything(self, case):
        inst, sched = case
        report = replay_with_failures(
            inst, sched, FailureModel(slowdowns=(Slowdown(0, 0.0, 0.5),))
        )
        # same flops, double wall time on machine 0
        assert report.machine_busy[0] == pytest.approx(2 * sched.machine_loads[0], rel=1e-9)
        assert report.total_accuracy == pytest.approx(sched.total_accuracy, rel=1e-9)

    def test_slowdown_can_cause_deadline_misses(self):
        # tight deadlines + heavy slowdown → some task finishes late
        inst = make_instance(n=10, m=2, beta=1.0, rho=0.3, seed=161)
        sched = ApproxScheduler().solve(inst)
        report = replay_with_failures(
            inst, sched, FailureModel(slowdowns=(Slowdown(0, 0.0, 0.3), Slowdown(1, 0.0, 0.3)))
        )
        assert report.deadline_misses  # the audit catches the lateness

    def test_slowdown_onset_respected(self, case):
        inst, sched = case
        # onset after the machine drains: no effect at all
        report = replay_with_failures(
            inst, sched, FailureModel(slowdowns=(Slowdown(0, 1e9, 0.1),))
        )
        assert report.machine_busy[0] == pytest.approx(float(sched.machine_loads[0]), rel=1e-9)


class TestCombined:
    def test_slowdown_then_outage(self, case):
        inst, sched = case
        fm = FailureModel(
            outages=(Outage(0, 0.3),),
            slowdowns=(Slowdown(0, 0.1, 0.5),),
        )
        report = replay_with_failures(inst, sched, fm)
        # busy time on machine 0 cannot exceed the outage time
        assert report.machine_busy[0] <= 0.3 + 1e-12
        assert report.total_accuracy <= sched.total_accuracy + 1e-9

    def test_slowdown_and_outage_both_at_zero_same_machine(self, case):
        """The outage wins the tie: the machine never runs, slowed or not."""
        inst, sched = case
        fm = FailureModel(
            outages=(Outage(0, 0.0),),
            slowdowns=(Slowdown(0, 0.0, 0.5),),
        )
        report = replay_with_failures(inst, sched, fm)
        assert report.machine_busy[0] == 0.0
        on_m0 = {j for j in range(inst.n_tasks) if sched.times[j, 0] > 0}
        assert on_m0 <= set(report.truncated_tasks)
        # identical outcome to the outage alone
        only_outage = replay_with_failures(inst, sched, FailureModel(outages=(Outage(0, 0.0),)))
        assert report.total_accuracy == pytest.approx(only_outage.total_accuracy, rel=1e-12)


class TestEventStream:
    def test_events_time_ordered_with_outage_first_ties(self):
        fm = FailureModel(
            outages=(Outage(1, 2.0), Outage(0, 0.5)),
            slowdowns=(Slowdown(2, 2.0, 0.5), Slowdown(0, 1.0, 0.9)),
        )
        events = fm.events()
        assert [e.at for e in events] == [0.5, 1.0, 2.0, 2.0]
        # at t=2.0 the outage precedes the slowdown
        assert isinstance(events[2], Outage) and isinstance(events[3], Slowdown)


class TestDurationNoise:
    def test_deterministic_under_fixed_seed(self, case):
        inst, sched = case
        a = replay_with_duration_noise(inst, sched, sigma=0.2, seed=42)
        b = replay_with_duration_noise(inst, sched, sigma=0.2, seed=42)
        np.testing.assert_array_equal(a.task_completion, b.task_completion)
        np.testing.assert_array_equal(a.machine_busy, b.machine_busy)
        assert a.deadline_misses == b.deadline_misses
        # a different seed jitters differently
        c = replay_with_duration_noise(inst, sched, sigma=0.2, seed=43)
        assert not np.array_equal(a.task_completion, c.task_completion)

    def test_zero_sigma_is_nominal(self, case):
        inst, sched = case
        report = replay_with_duration_noise(inst, sched, sigma=0.0, seed=1)
        assert report.total_accuracy == pytest.approx(sched.total_accuracy, rel=1e-9)
        assert report.energy == pytest.approx(sched.total_energy, rel=1e-9)
        assert not report.deadline_misses

    def test_accuracy_preserved_under_noise(self, case):
        inst, sched = case
        report = replay_with_duration_noise(inst, sched, sigma=0.5, seed=7)
        # the work still completes — only timeliness suffers
        assert report.total_accuracy == pytest.approx(sched.total_accuracy, rel=1e-9)
