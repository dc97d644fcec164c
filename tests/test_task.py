"""Tasks and task sets."""

import numpy as np
import pytest

from repro.core.accuracy import PiecewiseLinearAccuracy
from repro.core.task import Task, TaskSet
from repro.utils.errors import ValidationError

from conftest import simple_pla


def make_task(deadline=1.0, **kw):
    return Task(deadline=deadline, accuracy=simple_pla(**kw))


class TestTask:
    def test_properties(self):
        t = make_task()
        assert t.f_max == pytest.approx(3e12)
        assert t.a_min == 0.0
        assert t.efficiency_theta == pytest.approx(2e-13)

    def test_rejects_nonpositive_deadline(self):
        with pytest.raises(ValidationError):
            make_task(deadline=0.0)

    def test_rejects_non_pla_accuracy(self):
        with pytest.raises(ValidationError):
            Task(deadline=1.0, accuracy="not a function")  # type: ignore[arg-type]

    def test_repr_contains_name(self):
        t = Task(deadline=1.0, accuracy=simple_pla(), name="batch-7")
        assert "batch-7" in repr(t)


class TestTaskSet:
    def test_sorts_by_deadline(self):
        ts = TaskSet([make_task(3.0), make_task(1.0), make_task(2.0)])
        assert list(ts.deadlines) == [1.0, 2.0, 3.0]

    def test_assume_sorted_validates(self):
        with pytest.raises(ValidationError):
            TaskSet([make_task(2.0), make_task(1.0)], assume_sorted=True)

    def test_assume_sorted_accepts_sorted(self):
        ts = TaskSet([make_task(1.0), make_task(2.0)], assume_sorted=True)
        assert len(ts) == 2

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            TaskSet([])

    def test_d_max_and_totals(self):
        ts = TaskSet([make_task(1.0), make_task(4.0)])
        assert ts.d_max == 4.0
        assert ts.total_f_max == pytest.approx(2 * 3e12)

    def test_theta_extremes_and_mu(self):
        a = Task(1.0, simple_pla(slopes=(4e-13, 1e-13)))
        b = Task(2.0, simple_pla(slopes=(2e-13, 1e-13)))
        ts = TaskSet([a, b])
        assert ts.theta_max == pytest.approx(4e-13)
        assert ts.theta_min == pytest.approx(2e-13)
        assert ts.heterogeneity_mu == pytest.approx(2.0)

    def test_accuracies_vector(self):
        ts = TaskSet([make_task(1.0), make_task(2.0)])
        accs = ts.accuracies([0.0, 3e12])
        assert accs[0] == pytest.approx(0.0)
        assert accs[1] == pytest.approx(ts[1].a_max)

    def test_accuracies_rejects_bad_shape(self):
        ts = TaskSet([make_task(1.0)])
        with pytest.raises(ValidationError):
            ts.accuracies([1.0, 2.0])

    def test_max_accuracy_sum(self):
        ts = TaskSet([make_task(1.0), make_task(2.0)])
        assert ts.max_accuracy_sum() == pytest.approx(2 * ts[0].a_max)

    def test_deadline_view_readonly(self):
        ts = TaskSet([make_task(1.0)])
        with pytest.raises(ValueError):
            ts.deadlines[0] = 9.0


def padded(row, width, fill):
    return list(row) + [fill] * (width - len(row))


class TestFromArrays:
    INF = float("inf")

    def rows(self):
        """Two tasks, 2 and 1 pieces, the shorter padded with inf / a_max."""
        bp = np.array([[0.0, 1e12, 3e12], [0.0, 2e12, 5e12]])
        acc = np.array([[0.0, 0.2, 0.4], [0.1, 0.5, 0.5]])
        return bp, acc

    def test_matches_task_objects(self):
        bp, acc = self.rows()
        built = TaskSet.from_arrays([2.0, 1.0], bp, acc, n_segments=[2, 1], names=["a", "b"])
        reference = TaskSet(
            [
                Task(2.0, PiecewiseLinearAccuracy(bp[0], acc[0]), name="a"),
                Task(1.0, PiecewiseLinearAccuracy(bp[1, :2], acc[1, :2]), name="b"),
            ]
        )
        for name in ("deadlines", "f_max", "breakpoints", "breakpoint_accuracies", "slopes", "n_segments"):
            assert np.array_equal(getattr(built, name), getattr(reference, name)), name
        assert [t.name for t in built] == ["b", "a"]
        assert built.breakpoints[0].tolist() == [0.0, 2e12, self.INF]
        assert built.breakpoint_accuracies[0].tolist() == [0.1, 0.5, 0.5]
        for a, b in zip(built, reference):
            assert a.deadline == b.deadline
            assert np.array_equal(a.accuracy.breakpoints, b.accuracy.breakpoints)
            assert np.array_equal(a.accuracy.slopes, b.accuracy.slopes)
        assert built.theta_min == reference.theta_min and built.theta_max == reference.theta_max
        assert built.max_accuracy_sum() == reference.max_accuracy_sum()

    def test_padding_is_ignored_and_trimmed(self):
        bp = np.array([[0.0, 1.0, -7.0, 99.0]])
        acc = np.array([[0.0, 0.5, 3.0, -1.0]])
        built = TaskSet.from_arrays([1.0], bp, acc, n_segments=[1])
        assert built.breakpoints.tolist() == [[0.0, 1.0]]
        assert built[0].accuracy.n_segments == 1

    def test_stable_edf_order(self):
        bp = np.tile([0.0, 1.0], (4, 1))
        acc = np.array([[0.0, 0.1], [0.0, 0.2], [0.0, 0.3], [0.0, 0.4]])
        built = TaskSet.from_arrays([2.0, 1.0, 2.0, 1.0], bp, acc)
        assert built.deadlines.tolist() == [1.0, 1.0, 2.0, 2.0]
        assert [t.a_max for t in built] == [0.2, 0.4, 0.1, 0.3]

    @pytest.mark.parametrize(
        "breakpoints, accuracies",
        [
            ([1.0, 2.0], [0.0, 0.5]),
            ([0.0, 2.0, 1.0], [0.0, 0.3, 0.5]),
            ([0.0, 1.0, 1.0], [0.0, 0.3, 0.5]),
            ([0.0, float("nan"), 2.0], [0.0, 0.3, 0.5]),
            ([0.0, 1.0, float("inf")], [0.0, 0.3, 0.5]),
            ([0.0, 1.0], [0.0, 1.5]),
            ([0.0, 1.0], [-0.1, 0.5]),
            ([0.0, 1.0, 2.0], [0.0, 0.5, 0.4]),
            ([0.0, 1.0, 2.0], [0.0, 0.1, 0.5]),
        ],
    )
    def test_rejects_what_the_accuracy_function_rejects(self, breakpoints, accuracies):
        with pytest.raises(ValidationError):
            PiecewiseLinearAccuracy(breakpoints, accuracies)
        good_bp, good_acc = [0.0, 1.0, 2.0], [0.0, 0.3, 0.4]
        width = max(len(breakpoints), 3)
        bp = np.array([padded(good_bp, width, np.inf), padded(breakpoints, width, np.inf)])
        acc = np.array([padded(good_acc, width, 0.4), padded(accuracies, width, 1.0)])
        with pytest.raises(ValidationError):
            TaskSet.from_arrays([1.0, 2.0], bp, acc, n_segments=[2, len(breakpoints) - 1])

    def test_concavity_tolerance_scales_with_the_row(self):
        # A rise below 1e-9 of the row's largest slope is float noise.
        slopes = [1.0, 1.0 + 5e-10]
        acc = np.cumsum([0.0] + [s * 0.1 for s in slopes])
        bp = np.array([[0.0, 0.1, 0.2]])
        PiecewiseLinearAccuracy(bp[0], acc)
        assert len(TaskSet.from_arrays([1.0], bp, acc[None, :])) == 1

    @pytest.mark.parametrize("deadline", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_deadlines(self, deadline):
        bp, acc = self.rows()
        with pytest.raises(ValidationError):
            TaskSet.from_arrays([1.0, deadline], bp, acc, n_segments=[2, 1])

    def test_rejects_bad_shapes(self):
        bp, acc = self.rows()
        with pytest.raises(ValidationError):
            TaskSet.from_arrays([1.0], bp, acc)
        with pytest.raises(ValidationError):
            TaskSet.from_arrays([1.0, 2.0], bp, acc[:, :2])
        with pytest.raises(ValidationError):
            TaskSet.from_arrays([], np.zeros((0, 2)), np.zeros((0, 2)))
        with pytest.raises(ValidationError):
            TaskSet.from_arrays([1.0, 2.0], bp, acc, n_segments=[2, 0])
        with pytest.raises(ValidationError):
            TaskSet.from_arrays([1.0, 2.0], bp, acc, names=["only-one"])

    def test_tasks_built_lazily_once(self):
        bp, acc = self.rows()
        built = TaskSet.from_arrays([1.0, 2.0], bp, acc, n_segments=[2, 1])
        assert built._tasks is None
        assert built.segment_table.n_tasks == 2 and built.heterogeneity_mu > 0
        assert built._tasks is None  # the solver's views never need objects
        assert built.tasks is built.tasks
        assert built[1] is list(built)[1]

    def test_arrays_are_read_only(self):
        bp, acc = self.rows()
        built = TaskSet.from_arrays([1.0, 2.0], bp, acc)
        bp[0, 1] = 5.0  # the set holds its own copy
        assert built.breakpoints[0, 1] == 1e12
        for name in ("deadlines", "f_max", "breakpoints", "breakpoint_accuracies", "slopes", "n_segments"):
            with pytest.raises(ValueError):
                getattr(built, name)[...] = 0
