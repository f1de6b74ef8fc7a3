"""Task lifecycle state machine and derived quantities."""

import math

import pytest

from repro.core.errors import SimulationStateError, WorkloadError
from repro.tasks.task import DropStage, Task, TaskStatus
from repro.tasks.task_type import TaskType

T = TaskType("T1", 0)


def fresh(arrival=0.0, deadline=100.0) -> Task:
    return Task(id=0, task_type=T, arrival_time=arrival, deadline=deadline)


class TestValidation:
    def test_negative_id_rejected(self):
        with pytest.raises(WorkloadError):
            Task(id=-1, task_type=T, arrival_time=0.0, deadline=1.0)

    def test_negative_arrival_rejected(self):
        with pytest.raises(WorkloadError):
            Task(id=0, task_type=T, arrival_time=-1.0, deadline=1.0)

    def test_deadline_before_arrival_rejected(self):
        with pytest.raises(WorkloadError):
            Task(id=0, task_type=T, arrival_time=5.0, deadline=4.0)

    def test_nan_arrival_rejected(self):
        with pytest.raises(WorkloadError):
            Task(id=0, task_type=T, arrival_time=math.nan, deadline=1.0)

    def test_infinite_deadline_allowed(self):
        task = fresh(deadline=math.inf)
        assert task.deadline == math.inf


class TestLifecycle:
    def test_happy_path(self):
        task = fresh()
        task.enqueue_batch()
        assert task.status is TaskStatus.IN_BATCH_QUEUE
        task.assign(machine=None, now=1.0)  # type: ignore[arg-type]
        assert task.status is TaskStatus.ASSIGNED
        assert task.assigned_time == 1.0
        task.start(2.0)
        assert task.status is TaskStatus.RUNNING
        task.complete(7.0)
        assert task.status is TaskStatus.COMPLETED
        assert task.status.is_terminal

    def test_cancel_from_batch_queue(self):
        task = fresh()
        task.enqueue_batch()
        task.cancel(3.0)
        assert task.status is TaskStatus.CANCELLED
        assert task.cancelled_time == 3.0

    def test_miss_while_assigned(self):
        task = fresh()
        task.enqueue_batch()
        task.assign(None, 1.0)  # type: ignore[arg-type]
        task.miss(4.0, DropStage.MACHINE_QUEUE)
        assert task.status is TaskStatus.MISSED
        assert task.drop_stage is DropStage.MACHINE_QUEUE

    def test_miss_while_running(self):
        task = fresh()
        task.enqueue_batch()
        task.assign(None, 1.0)  # type: ignore[arg-type]
        task.start(2.0)
        task.miss(5.0, DropStage.EXECUTING)
        assert task.status is TaskStatus.MISSED
        assert task.missed_time == 5.0

    def test_cannot_complete_without_running(self):
        task = fresh()
        with pytest.raises(SimulationStateError):
            task.complete(1.0)

    def test_cannot_start_without_assignment(self):
        task = fresh()
        task.enqueue_batch()
        with pytest.raises(SimulationStateError):
            task.start(1.0)

    def test_cannot_cancel_after_assignment(self):
        task = fresh()
        task.enqueue_batch()
        task.assign(None, 1.0)  # type: ignore[arg-type]
        with pytest.raises(SimulationStateError):
            task.cancel(2.0)

    def test_cannot_miss_terminal_task(self):
        task = fresh()
        task.enqueue_batch()
        task.cancel(1.0)
        with pytest.raises(SimulationStateError):
            task.miss(2.0, DropStage.EXECUTING)

    def test_double_enqueue_rejected(self):
        task = fresh()
        task.enqueue_batch()
        with pytest.raises(SimulationStateError):
            task.enqueue_batch()


class TestDerived:
    def _completed(self, completion: float, deadline: float = 100.0) -> Task:
        task = fresh(deadline=deadline)
        task.enqueue_batch()
        task.assign(None, 0.0)  # type: ignore[arg-type]
        task.start(1.0)
        task.complete(completion)
        return task

    def test_on_time_true(self):
        assert self._completed(50.0).on_time

    def test_on_time_at_exact_deadline(self):
        assert self._completed(100.0).on_time

    def test_on_time_false_when_late(self):
        assert not self._completed(101.0).on_time

    def test_on_time_false_for_missed(self):
        task = fresh()
        task.enqueue_batch()
        task.assign(None, 0.0)  # type: ignore[arg-type]
        task.miss(4.0, DropStage.MACHINE_QUEUE)
        assert not task.on_time

    def test_wait_and_response_none_before_events(self):
        task = fresh()
        assert task.wait_time is None
        assert task.response_time is None

    def test_wait_and_response_values(self):
        task = self._completed(9.0)
        assert task.wait_time == 1.0
        assert task.response_time == 9.0
