"""Memory / multi-tenancy extension: admission and deferral."""

import numpy as np
import pytest

from repro.core.config import Scenario
from repro.machines.eet import EETMatrix
from repro.memory.allocation import fits_in_memory, memory_in_use
from repro.tasks.task import Task
from repro.tasks.task_type import TaskType
from repro.tasks.workload import Workload


def build_system(capacity=1000.0, footprints=(700.0, 700.0)):
    types = [
        TaskType("big1", 0, memory=footprints[0]),
        TaskType("big2", 1, memory=footprints[1]),
    ]
    eet = EETMatrix(np.array([[5.0], [5.0]]), types, ["M"])
    return types, eet


class TestAllocationHelpers:
    def test_memory_in_use_counts_queued_and_running(self):
        from repro.machines.cluster import Cluster

        types, eet = build_system()
        cluster = Cluster.build(eet, {"M": 1}, memory_capacities={"M": 2000.0})
        machine = cluster[0]
        t0 = Task(id=0, task_type=types[0], arrival_time=0.0, deadline=99.0)
        t0.enqueue_batch()
        machine.enqueue(t0, 0.0)
        machine.start_next(0.0)
        t1 = Task(id=1, task_type=types[1], arrival_time=0.0, deadline=99.0)
        t1.enqueue_batch()
        machine.enqueue(t1, 0.0)
        assert memory_in_use(machine) == pytest.approx(1400.0)

    def test_fits_in_memory(self):
        from repro.machines.cluster import Cluster

        types, eet = build_system()
        cluster = Cluster.build(eet, {"M": 1}, memory_capacities={"M": 1000.0})
        machine = cluster[0]
        t0 = Task(id=0, task_type=types[0], arrival_time=0.0, deadline=99.0)
        t0.enqueue_batch()
        machine.enqueue(t0, 0.0)
        t1 = Task(id=1, task_type=types[1], arrival_time=0.0, deadline=99.0)
        assert not fits_in_memory(machine, t1)

    def test_unconstrained_machine_always_fits(self):
        from repro.machines.cluster import Cluster

        types, eet = build_system()
        cluster = Cluster.build(eet, {"M": 1})
        t = Task(id=0, task_type=types[0], arrival_time=0.0, deadline=99.0)
        assert fits_in_memory(cluster[0], t)


class TestInSimulation:
    def test_memory_defers_second_task(self):
        """Two 700 MB tasks on a 1000 MB machine: strictly sequential."""
        types, eet = build_system()
        tasks = [
            Task(id=0, task_type=types[0], arrival_time=0.0, deadline=99.0),
            Task(id=1, task_type=types[1], arrival_time=0.0, deadline=99.0),
        ]
        workload = Workload(task_types=types, tasks=tasks)
        scenario = Scenario(
            eet=eet,
            machine_counts={"M": 1},
            scheduler="MM",
            queue_capacity=5,
            workload=workload,
            memory_capacities={"M": 1000.0},
        )
        result = scenario.run()
        records = {r["task_id"]: r for r in result.task_records}
        assert records[0]["start_time"] == 0.0
        # Task 1 could not even be queued until task 0 finished at t=5.
        assert records[1]["start_time"] == pytest.approx(5.0)
        assert result.summary.completed == 2

    def test_no_capacity_means_concurrent_queueing(self):
        types, eet = build_system()
        tasks = [
            Task(id=0, task_type=types[0], arrival_time=0.0, deadline=99.0),
            Task(id=1, task_type=types[1], arrival_time=0.0, deadline=99.0),
        ]
        workload = Workload(task_types=types, tasks=tasks)
        scenario = Scenario(
            eet=eet,
            machine_counts={"M": 1},
            scheduler="MM",
            queue_capacity=5,
            workload=workload,
        )
        result = scenario.run()
        records = {r["task_id"]: r for r in result.task_records}
        # Without the memory constraint, task 1 queues at t=0 and starts at 5
        # as well — but it was *assigned* at 0 rather than deferred.
        assert records[1]["assigned_time"] == 0.0

    def test_memory_deferral_assigned_later(self):
        types, eet = build_system()
        tasks = [
            Task(id=0, task_type=types[0], arrival_time=0.0, deadline=99.0),
            Task(id=1, task_type=types[1], arrival_time=0.0, deadline=99.0),
        ]
        workload = Workload(task_types=types, tasks=tasks)
        scenario = Scenario(
            eet=eet,
            machine_counts={"M": 1},
            scheduler="MM",
            queue_capacity=5,
            workload=workload,
            memory_capacities={"M": 1000.0},
        )
        result = scenario.run()
        records = {r["task_id"]: r for r in result.task_records}
        assert records[1]["assigned_time"] == pytest.approx(5.0)
