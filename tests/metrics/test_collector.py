"""Metrics collection and summary computation."""

import random

import pytest

from repro.core.errors import ReportError
from repro.metrics.collector import MetricsCollector
from repro.metrics.rollup import global_summary
from repro.tasks.task import DropStage, Task
from repro.tasks.task_type import TaskType

T1 = TaskType("T1", 0)
T2 = TaskType("T2", 1)


def completed_task(i=0, task_type=T1, start=0.0, end=5.0, deadline=100.0):
    t = Task(id=i, task_type=task_type, arrival_time=0.0, deadline=deadline)
    t.enqueue_batch()
    t.assign(None, 0.0)  # type: ignore[arg-type]
    t.start(start)
    t.complete(end)
    return t


def cancelled_task(i=0, task_type=T1):
    t = Task(id=i, task_type=task_type, arrival_time=0.0, deadline=10.0)
    t.enqueue_batch()
    t.cancel(10.0)
    return t


def missed_task(i=0, task_type=T1):
    t = Task(id=i, task_type=task_type, arrival_time=0.0, deadline=10.0)
    t.enqueue_batch()
    t.assign(None, 0.0)  # type: ignore[arg-type]
    t.miss(10.0, DropStage.MACHINE_QUEUE)
    return t


class TestIngestion:
    def test_non_terminal_rejected(self):
        collector = MetricsCollector()
        t = Task(id=0, task_type=T1, arrival_time=0.0, deadline=1.0)
        with pytest.raises(ReportError):
            collector.record_terminal(t)

    def test_double_record_rejected(self):
        collector = MetricsCollector()
        t = completed_task()
        collector.record_terminal(t)
        with pytest.raises(ReportError):
            collector.record_terminal(t)

    def test_recorded_count(self):
        collector = MetricsCollector()
        collector.record_terminal(completed_task(0))
        collector.record_terminal(cancelled_task(1))
        assert collector.recorded == 2

    def test_tasks_sorted_by_id(self):
        collector = MetricsCollector()
        collector.record_terminal(completed_task(5))
        collector.record_terminal(completed_task(2))
        assert [t.id for t in collector.tasks()] == [2, 5]


class TestTaskRecords:
    def test_completed_record_fields(self):
        collector = MetricsCollector()
        collector.record_terminal(completed_task(3, start=1.0, end=6.0))
        (row,) = collector.task_records()
        assert row["task_id"] == 3
        assert row["status"] == "completed"
        assert row["start_time"] == 1.0
        assert row["completion_time"] == 6.0
        assert row["wait_time"] == 1.0
        assert row["response_time"] == 6.0
        assert row["on_time"] is True

    def test_cancelled_record_has_empty_machine(self):
        collector = MetricsCollector()
        collector.record_terminal(cancelled_task())
        (row,) = collector.task_records()
        assert row["machine"] == ""
        assert row["status"] == "cancelled"
        assert row["cancelled_time"] == 10.0
        assert row["completion_time"] == ""

    def test_missed_record_drop_stage(self):
        collector = MetricsCollector()
        collector.record_terminal(missed_task())
        (row,) = collector.task_records()
        assert row["drop_stage"] == "machine_queue"
        assert row["missed_time"] == 10.0


class TestSummary:
    def _collector(self):
        collector = MetricsCollector()
        collector.record_terminal(completed_task(0, T1, 0.0, 5.0))
        collector.record_terminal(completed_task(1, T2, 5.0, 9.0))
        collector.record_terminal(cancelled_task(2, T1))
        collector.record_terminal(missed_task(3, T2))
        return collector

    def test_counts(self, cluster_3x2):
        summary = self._collector().summary(cluster_3x2, end_time=20.0)
        assert summary.total_tasks == 4
        assert summary.completed == 2
        assert summary.cancelled == 1
        assert summary.missed == 1

    def test_rates(self, cluster_3x2):
        summary = self._collector().summary(cluster_3x2, end_time=20.0)
        assert summary.completion_rate == 0.5
        assert summary.cancellation_rate == 0.25
        assert summary.miss_rate == 0.25

    def test_conservation(self, cluster_3x2):
        summary = self._collector().summary(cluster_3x2, end_time=20.0)
        assert (
            summary.completed + summary.cancelled + summary.missed
            == summary.total_tasks
        )

    def test_makespan(self, cluster_3x2):
        summary = self._collector().summary(cluster_3x2, end_time=20.0)
        assert summary.makespan == 9.0

    def test_per_type_rates(self, cluster_3x2):
        summary = self._collector().summary(cluster_3x2, end_time=20.0)
        assert summary.completion_rate_by_type == {"T1": 0.5, "T2": 0.5}

    def test_fairness_perfect_when_equal(self, cluster_3x2):
        summary = self._collector().summary(cluster_3x2, end_time=20.0)
        assert summary.fairness_index == pytest.approx(1.0)

    def test_throughput(self, cluster_3x2):
        summary = self._collector().summary(cluster_3x2, end_time=20.0)
        assert summary.throughput == pytest.approx(2 / 20.0)

    def test_empty_summary(self, cluster_3x2):
        summary = MetricsCollector().summary(cluster_3x2, end_time=0.0)
        assert summary.total_tasks == 0
        assert summary.completion_rate == 0.0
        assert summary.fairness_index == 1.0

    def test_as_dict_flattens_type_rates(self, cluster_3x2):
        d = self._collector().summary(cluster_3x2, end_time=20.0).as_dict()
        assert d["completion_rate[T1]"] == 0.5
        assert "completion_rate_by_type" not in d


def mixed_tasks(n=60, seed=7):
    """Terminal tasks of both types with irregular float arrivals and times."""
    rng = random.Random(seed)
    tasks = []
    for i in range(n):
        task_type = (T1, T2)[i % 2]
        arrival = rng.uniform(0.0, 50.0)
        t = Task(id=i, task_type=task_type, arrival_time=arrival,
                 deadline=arrival + rng.uniform(1.0, 30.0))
        t.enqueue_batch()
        if i % 5 == 4:
            t.cancel(t.deadline)
            tasks.append(t)
            continue
        t.assign(None, arrival)  # type: ignore[arg-type]
        start = arrival + rng.uniform(0.0, 7.3)
        t.start(start)
        if i % 7 == 6:
            t.miss(max(start, t.deadline), DropStage.EXECUTING)
        else:
            t.complete(start + rng.uniform(0.1, 11.9))
        tasks.append(t)
    return tasks


class TestSummaryOrder:
    def test_record_order_does_not_change_summary(self, cluster_3x2):
        tasks = mixed_tasks()
        in_order = MetricsCollector()
        for t in tasks:
            in_order.record_terminal(t)
        shuffled = MetricsCollector()
        for t in random.Random(3).sample(tasks, len(tasks)):
            shuffled.record_terminal(t)
        expected = in_order.summary(cluster_3x2, end_time=80.0)
        assert expected.mean_wait_time > 0.0
        assert expected.mean_response_time > expected.mean_wait_time
        assert 0 < expected.on_time < expected.completed
        assert shuffled.summary(cluster_3x2, end_time=80.0) == expected

    def test_global_summary_matches_one_collector(self, cluster_3x2):
        tasks = mixed_tasks()
        whole = MetricsCollector()
        halves = (MetricsCollector(), MetricsCollector())
        for t in tasks:
            whole.record_terminal(t)
            halves[t.id % 3 == 0].record_terminal(t)
        machines = list(cluster_3x2)
        assert global_summary(
            halves, machines, end_time=80.0
        ) == whole.summary(cluster_3x2, end_time=80.0)

    def test_task_in_two_collectors_rejected(self, cluster_3x2):
        first, second = MetricsCollector(), MetricsCollector()
        first.record_terminal(completed_task(0))
        first.record_terminal(completed_task(1))
        second.record_terminal(first.tasks()[1])
        with pytest.raises(ReportError, match="multiple collectors"):
            global_summary(
                [first, second], list(cluster_3x2), end_time=10.0
            )
