"""JSON round-trips of instances and schedules."""

import json
import math

import numpy as np
import pytest

from repro.algorithms import ApproxScheduler
from repro.core import (
    ExponentialAccuracy,
    PiecewiseLinearAccuracy,
    ProblemInstance,
    Task,
    TaskSet,
    fit_piecewise,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_schedule,
    save_instance,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.core.segments import SegmentTable
from repro.utils import units
from repro.utils.errors import ValidationError

from conftest import make_cluster, make_instance


def reference_from_dict(data):
    """The per-task path instance_from_dict replaced: one validated Task each."""
    return TaskSet(
        [
            Task(
                deadline=t["deadline"],
                accuracy=PiecewiseLinearAccuracy(t["accuracy"]["breakpoints"], t["accuracy"]["accuracies"]),
                name=t.get("name"),
            )
            for t in data["tasks"]
        ]
    )


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def mixed_k_instance(n, seed):
    """Tasks whose accuracy functions have 1..7 pieces, some deadlines tied."""
    rng = np.random.default_rng(seed)
    tasks = [
        Task(
            deadline=float(np.round(rng.uniform(0.1, 3.0), 1)),
            accuracy=fit_piecewise(ExponentialAccuracy(float(rng.uniform(0.1, 2.0)) / units.TERA), int(k)),
            name=f"t{j}" if j % 3 else None,
        )
        for j, k in enumerate(rng.integers(1, 8, n))
    ]
    return ProblemInstance(TaskSet(tasks), make_cluster(2, seed=seed), 1e4)


class TestInstanceRoundtrip:
    def test_exact_roundtrip(self):
        inst = make_instance(n=6, m=3, beta=0.4, seed=120)
        clone = instance_from_dict(instance_to_dict(inst))
        assert clone.budget == inst.budget
        assert np.array_equal(clone.tasks.deadlines, inst.tasks.deadlines)
        assert np.array_equal(clone.cluster.speeds, inst.cluster.speeds)
        for a, b in zip(inst.tasks, clone.tasks):
            assert np.array_equal(a.accuracy.breakpoints, b.accuracy.breakpoints)
            assert np.array_equal(
                a.accuracy.breakpoint_accuracies, b.accuracy.breakpoint_accuracies
            )

    def test_infinite_budget(self):
        inst = make_instance(n=3, m=2, seed=121)
        inst = ProblemInstance(inst.tasks, inst.cluster, math.inf)
        clone = instance_from_dict(instance_to_dict(inst))
        assert math.isinf(clone.budget)

    def test_file_roundtrip(self, tmp_path):
        inst = make_instance(n=4, m=2, seed=122)
        path = tmp_path / "instance.json"
        save_instance(inst, path)
        clone = load_instance(path)
        assert clone.n_tasks == 4
        # valid JSON on disk
        json.loads(path.read_text())

    def test_preserves_names_and_idle_power(self):
        from repro.core import Cluster, Machine, Task, TaskSet
        from conftest import simple_pla

        inst = ProblemInstance(
            TaskSet([Task(1.0, simple_pla(), name="batch-a")]),
            Cluster([Machine(1e12, 1e10, name="gpu-1", idle_power=30.0)]),
            5.0,
        )
        clone = instance_from_dict(instance_to_dict(inst))
        assert clone.tasks[0].name == "batch-a"
        assert clone.cluster[0].name == "gpu-1"
        assert clone.cluster[0].idle_power == 30.0

    def test_rejects_wrong_format(self):
        with pytest.raises(ValidationError):
            instance_from_dict({"format": "something-else", "version": 1})

    def test_rejects_wrong_version(self):
        inst = make_instance(n=2, m=1, seed=123)
        data = instance_to_dict(inst)
        data["version"] = 99
        with pytest.raises(ValidationError):
            instance_from_dict(data)


class TestArrayBuild:
    @pytest.mark.parametrize("n, seed", [(1, 0), (5, 1), (40, 2), (140, 3)])
    def test_mixed_k_matches_per_task_path_bit_for_bit(self, n, seed):
        data = json.loads(json.dumps(instance_to_dict(mixed_k_instance(n, seed))))
        built, reference = instance_from_dict(data).tasks, reference_from_dict(data)
        assert same_bits(built.deadlines, reference.deadlines)
        for a, b in zip(built, reference):
            assert a.deadline == b.deadline and a.name == b.name
            assert same_bits(a.accuracy.breakpoints, b.accuracy.breakpoints)
            assert same_bits(a.accuracy.breakpoint_accuracies, b.accuracy.breakpoint_accuracies)
            assert same_bits(a.accuracy.slopes, b.accuracy.slopes)
        for name in SegmentTable.__slots__:
            assert same_bits(getattr(built.segment_table, name), getattr(reference.segment_table, name)), name

    def test_to_dict_reads_the_rows(self):
        inst = mixed_k_instance(12, seed=5)
        per_task = [
            {
                "deadline": t.deadline,
                "name": t.name,
                "accuracy": {
                    "breakpoints": t.accuracy.breakpoints.tolist(),
                    "accuracies": t.accuracy.breakpoint_accuracies.tolist(),
                },
            }
            for t in inst.tasks
        ]
        assert instance_to_dict(inst)["tasks"] == per_task
        clone = instance_from_dict(instance_to_dict(inst))
        assert instance_to_dict(clone)["tasks"] == per_task
        assert clone.tasks._tasks is None  # no Task objects were built

    def test_mixed_k_round_trip_is_bit_faithful(self):
        inst = mixed_k_instance(30, seed=4)
        data = instance_to_dict(inst)
        assert instance_to_dict(instance_from_dict(json.loads(json.dumps(data)))) == data

    @pytest.mark.parametrize(
        "breakpoints, accuracies",
        [
            ([0.0, 1.0, 2.0], [0.0, 0.1, 0.5]),  # not concave
            ([0.0, 2.0, 1.0], [0.0, 0.3, 0.5]),  # breakpoints unsorted
            ([0.0, 1.0, 1.0], [0.0, 0.3, 0.5]),  # breakpoints repeated
            ([1.0, 2.0], [0.0, 0.5]),  # first breakpoint not 0
            ([0.0, 1.0], [0.0, 1.5]),  # accuracy above 1
            ([0.0, 1.0, 2.0], [0.0, 0.5, 0.4]),  # accuracy decreasing
            ([0.0, 1.0], [0.0, float("nan")]),  # accuracy not a number
            ([0.0, 1.0], [0.0, 0.5, 0.6]),  # length mismatch
            ([0.0], [0.5]),  # a single point
        ],
    )
    def test_rejects_what_the_per_task_path_rejected(self, breakpoints, accuracies):
        data = instance_to_dict(make_instance(n=4, m=2, seed=130))
        data["tasks"][2]["accuracy"] = {"breakpoints": breakpoints, "accuracies": accuracies}
        with pytest.raises(ValidationError):
            reference_from_dict(data)
        with pytest.raises(ValidationError):
            instance_from_dict(data)

    @pytest.mark.parametrize("deadline", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_deadlines(self, deadline):
        data = instance_to_dict(make_instance(n=3, m=2, seed=131))
        data["tasks"][1]["deadline"] = deadline
        with pytest.raises(ValidationError):
            reference_from_dict(data)
        with pytest.raises(ValidationError):
            instance_from_dict(data)

    def test_rejects_empty_task_list(self):
        data = instance_to_dict(make_instance(n=2, m=1, seed=132))
        data["tasks"] = []
        with pytest.raises(ValidationError):
            instance_from_dict(data)


class TestScheduleRoundtrip:
    def test_embedded_instance(self, tmp_path):
        inst = make_instance(n=5, m=2, beta=0.5, seed=124)
        sched = ApproxScheduler().solve(inst)
        path = tmp_path / "schedule.json"
        save_schedule(sched, path)
        clone = load_schedule(path)
        assert np.allclose(clone.times, sched.times)
        assert clone.total_accuracy == pytest.approx(sched.total_accuracy)

    def test_external_instance(self):
        inst = make_instance(n=5, m=2, beta=0.5, seed=125)
        sched = ApproxScheduler().solve(inst)
        data = schedule_to_dict(sched, embed_instance=False)
        assert "instance" not in data
        clone = schedule_from_dict(data, inst)
        assert np.allclose(clone.times, sched.times)

    def test_missing_instance_raises(self):
        inst = make_instance(n=3, m=2, seed=126)
        sched = ApproxScheduler().solve(inst)
        data = schedule_to_dict(sched, embed_instance=False)
        with pytest.raises(ValidationError):
            schedule_from_dict(data)

    def test_feasibility_preserved(self, tmp_path):
        inst = make_instance(n=6, m=2, beta=0.3, seed=127)
        sched = ApproxScheduler().solve(inst)
        path = tmp_path / "s.json"
        save_schedule(sched, path)
        assert load_schedule(path).feasibility(integral=True).feasible
