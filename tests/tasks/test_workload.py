"""Workload container: sorting, validation, copies, scaling."""

import pytest

from repro.core.errors import IncompatibleWorkloadError, WorkloadError
from repro.tasks.task import Task, TaskStatus
from repro.tasks.task_type import TaskType
from repro.tasks.workload import Workload


class TestConstruction:
    def test_tasks_sorted_by_arrival(self, task_types, make_workload):
        w = make_workload([(0, 5.0, 100.0), (1, 1.0, 100.0), (2, 3.0, 100.0)])
        assert [t.arrival_time for t in w] == [1.0, 3.0, 5.0]

    def test_duplicate_type_names_rejected(self):
        with pytest.raises(WorkloadError):
            Workload(task_types=[TaskType("A", 0), TaskType("A", 1)])

    def test_gapped_indices_rejected(self):
        with pytest.raises(WorkloadError):
            Workload(task_types=[TaskType("A", 0), TaskType("B", 2)])

    def test_duplicate_task_ids_rejected(self, task_types):
        tasks = [
            Task(id=1, task_type=task_types[0], arrival_time=0.0, deadline=1.0),
            Task(id=1, task_type=task_types[0], arrival_time=1.0, deadline=2.0),
        ]
        with pytest.raises(WorkloadError):
            Workload(task_types=task_types, tasks=tasks)

    def test_unknown_task_type_rejected(self, task_types):
        alien = TaskType("ALIEN", 0)
        tasks = [Task(id=0, task_type=alien, arrival_time=0.0, deadline=1.0)]
        with pytest.raises(IncompatibleWorkloadError):
            Workload(task_types=task_types, tasks=tasks)

    def test_container_protocol(self, make_workload):
        w = make_workload([(0, 0.0, 10.0), (1, 1.0, 11.0)])
        assert len(w) == 2
        assert w[0].arrival_time == 0.0
        assert [t.id for t in w] == [0, 1]


class TestFreshCopy:
    def test_copy_resets_status(self, make_workload):
        w = make_workload([(0, 0.0, 10.0)])
        w[0].enqueue_batch()
        clone = w.fresh_copy()
        assert clone[0].status is TaskStatus.CREATED
        assert w[0].status is TaskStatus.IN_BATCH_QUEUE  # original untouched

    def test_copy_preserves_times(self, make_workload):
        w = make_workload([(0, 3.0, 13.0), (1, 5.0, 25.0)])
        clone = w.fresh_copy()
        assert [(t.arrival_time, t.deadline) for t in clone] == [
            (3.0, 13.0),
            (5.0, 25.0),
        ]

    def test_copy_is_distinct_objects(self, make_workload):
        w = make_workload([(0, 0.0, 10.0)])
        assert w.fresh_copy()[0] is not w[0]


class TestFromArrays:
    def test_vectorised_constructor(self, task_types):
        w = Workload.from_arrays(
            task_types,
            type_indices=[2, 0],
            arrival_times=[5.0, 1.0],
            deadlines=[15.0, 11.0],
        )
        assert [t.task_type.name for t in w] == ["T1", "T3"]
        assert [t.id for t in w] == [0, 1]  # ids follow arrival order

    def test_mismatched_lengths_rejected(self, task_types):
        with pytest.raises(WorkloadError):
            Workload.from_arrays(task_types, [0], [0.0, 1.0], [1.0])

    def test_out_of_range_type_rejected(self, task_types):
        with pytest.raises(WorkloadError):
            Workload.from_arrays(task_types, [7], [0.0], [1.0])
