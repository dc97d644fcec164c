"""The packed segment table driving Algorithms 1-3."""

import numpy as np
import pytest

from repro.core import PiecewiseLinearAccuracy, Task, TaskSet
from repro.core.segments import SegmentTable, build_segment_list

from conftest import make_tasks


class TestBuildAndOrder:
    def test_build_covers_all_tasks(self):
        tasks = make_tasks(n=4)
        table = build_segment_list(tasks)
        assert set(table.task.tolist()) == {0, 1, 2, 3}
        per_task = int(np.sum(table.task == 0))
        assert per_task == tasks[0].accuracy.n_segments

    def test_build_flops_match_task_fmax(self):
        tasks = make_tasks(n=3)
        table = build_segment_list(tasks)
        for j, task in enumerate(tasks):
            total = float(table.width[table.task == j].sum())
            assert total == pytest.approx(task.f_max)

    def test_order_by_slope_nonincreasing(self):
        tasks = make_tasks(n=5)
        slopes = build_segment_list(tasks).slope
        assert np.all(slopes[:-1] >= slopes[1:])

    def test_order_within_task_respects_position(self):
        tasks = make_tasks(n=1)
        table = build_segment_list(tasks)
        positions = table.position[table.task == 0].tolist()
        assert positions == sorted(positions)

    def test_task_used_flops(self):
        tasks = make_tasks(n=3)
        table = build_segment_list(tasks)
        used = np.zeros(len(table))
        used[table.task == 0] = [4.0, 1.0, 0.0, 0.0, 0.0]
        used[table.task == 1] = [2.5, 0.0, 0.0, 0.0, 0.0]
        assert table.task_totals(used).tolist() == [5.0, 2.5, 0.0]


class TestPackedTable:
    def test_segments_match_accuracy_pieces(self):
        tasks = make_tasks(n=6, seed=3)
        table = build_segment_list(tasks)
        for j, task in enumerate(tasks):
            rows = np.flatnonzero(table.task == j)
            pieces = task.accuracy.segments()
            by_position = {int(table.position[r]): r for r in rows}
            for seg in pieces:
                r = by_position[seg.position]
                assert table.slope[r] == seg.slope
                assert table.width[r] == seg.total_flops

    def test_order_matches_sorted_records(self):
        tasks = make_tasks(n=7, seed=4)
        table = build_segment_list(tasks)
        records = sorted(
            (-seg.slope, j, seg.position) for j, task in enumerate(tasks) for seg in task.accuracy.segments()
        )
        assert [(j, k) for _, j, k in records] == list(zip(table.task.tolist(), table.position.tolist()))

    def test_ragged_tasks_are_padded(self):
        short = PiecewiseLinearAccuracy.single_segment(2e-13, 1e12)
        long = PiecewiseLinearAccuracy.from_slopes([3e-13, 1e-13, 5e-14], [1e12, 1e12, 2e12])
        table = build_segment_list(TaskSet([Task(1.0, short), Task(2.0, long)]))
        assert table.n_segments.tolist() == [1, 3]
        assert table.f_max.tolist() == [1e12, 4e12]
        assert table.breakpoints.shape == (2, 4)
        assert np.isinf(table.breakpoints[0, 2:]).all()
        assert len(table) == 4

    def test_arrays_are_read_only(self):
        table = build_segment_list(make_tasks(n=2))
        for name in SegmentTable.__slots__:
            with pytest.raises(ValueError):
                getattr(table, name)[...] = 0

    def test_task_set_caches_its_table(self):
        tasks = make_tasks(n=3)
        assert tasks.segment_table is tasks.segment_table
        assert make_tasks(n=3).segment_table is not tasks.segment_table
