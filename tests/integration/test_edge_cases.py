"""Edge cases across subsystem boundaries."""

import numpy as np
import pytest

from repro.core.config import Scenario
from repro.core.events import EventType
from repro.core.simulator import Simulator
from repro.machines.cluster import Cluster
from repro.machines.eet import EETMatrix
from repro.machines.failures import FailureModel
from repro.scheduling.registry import create_scheduler
from repro.tasks.task import Task, TaskStatus
from repro.tasks.task_type import TaskType
from repro.tasks.workload import Workload


def one_type_system(eet_values, machine_names):
    task_type = TaskType("T", 0)
    eet = EETMatrix(
        np.array([eet_values], dtype=float), [task_type], machine_names
    )
    return task_type, eet


class TestAllMachinesDown:
    def test_tasks_wait_out_a_total_outage(self):
        """Both machines crash before the task arrives; it waits and runs
        after repair instead of being lost."""
        task_type, eet = one_type_system([5.0, 5.0], ["A", "B"])
        task = Task(id=0, task_type=task_type, arrival_time=1.0, deadline=1e9)
        workload = Workload(task_types=[task_type], tasks=[task])
        cluster = Cluster.build(eet, {"A": 1, "B": 1})
        sim = Simulator(
            cluster=cluster,
            workload=workload,
            scheduler=create_scheduler("MECT"),
        )
        # Crash both machines manually at t=0.5 via direct state, simulating
        # an outage that predates the arrival.
        for machine in cluster:
            machine.fail(0.0)
        # Let the engine deliver the arrival; nothing can accept the task.
        assert sim.step()[3] is EventType.TASK_ARRIVAL
        sim.now = 2.0
        assert task.status is TaskStatus.IN_BATCH_QUEUE
        # Repair one machine; the next scheduling trigger maps the task.
        cluster[0].repair(2.0)
        sim.batch_queue  # task still waiting
        # A fresh arrival-less pass happens on the next event; force one by
        # running to completion of the remaining event stream.
        sim._scheduling_pass()
        sim.run()
        assert task.status is TaskStatus.COMPLETED


class TestEmptyWorkloadWithFailures:
    def test_no_failure_events_scheduled_for_empty_workload(self, eet_3x2):
        from repro.tasks.workload import Workload as W

        sim = Simulator(
            cluster=Cluster.build(eet_3x2, {"M1": 1, "M2": 1}),
            workload=W(task_types=eet_3x2.task_types, tasks=[]),
            scheduler=create_scheduler("MECT"),
            failure_model=FailureModel(mtbf=1.0, mttr=1.0),
        )
        result = sim.run()
        assert result.events_processed == 0


class TestCombinedExtensions:
    def test_network_plus_overhead_delays_compose(self):
        task_type = TaskType("T", 0, data_in=10.0)
        eet = EETMatrix(np.array([[4.0]]), [task_type], ["M"])
        task = Task(id=0, task_type=task_type, arrival_time=0.0, deadline=99.0)
        scenario = Scenario(
            eet=eet,
            machine_counts={"M": 1},
            scheduler="MECT",
            workload=Workload(task_types=[task_type], tasks=[task]),
            network={"M": (1.0, 10.0)},          # 1 s latency + 1 s transfer
            enable_network=True,
            scheduling_overhead={"per_pass": 0.5},
        )
        result = scenario.run()
        (record,) = result.task_records
        # 0.5 decision + 1.0 latency + 10/10 transfer = 2.5 s before start.
        assert record["start_time"] == pytest.approx(2.5)
        assert record["completion_time"] == pytest.approx(6.5)

    def test_noise_failures_overhead_conserve(self, eet_3x2):
        scenario = Scenario(
            eet=eet_3x2,
            machine_counts={"M1": 2, "M2": 1},
            scheduler="MM",
            queue_capacity=2,
            generator={"duration": 300.0, "intensity": 1.5},
            execution_model={"kind": "gamma", "cov": 0.3},
            failure_model=FailureModel(mtbf=60.0, mttr=10.0),
            scheduling_overhead={"per_pass": 0.05},
            seed=13,
        )
        s = scenario.run().summary
        assert s.completed + s.cancelled + s.missed == s.total_tasks
        assert s.total_tasks > 0


class TestSingleMachineSingleTask:
    def test_minimal_universe(self):
        task_type, eet = one_type_system([1.0], ["M"])
        task = Task(id=0, task_type=task_type, arrival_time=0.0, deadline=2.0)
        sim = Simulator(
            cluster=Cluster.build(eet, {"M": 1}, queue_capacity=1),
            workload=Workload(task_types=[task_type], tasks=[task]),
            scheduler=create_scheduler("MM"),
        )
        result = sim.run()
        assert result.summary.completed == 1
        assert result.summary.makespan == 1.0


class TestZeroCapacityBatchQueue:
    def test_capacity_zero_cancels_everything(self):
        """Machine queues of size 0 can never admit work: with finite
        deadlines everything cancels (and conservation still holds)."""
        task_type, eet = one_type_system([1.0], ["M"])
        tasks = [
            Task(id=i, task_type=task_type, arrival_time=0.0, deadline=5.0)
            for i in range(4)
        ]
        sim = Simulator(
            cluster=Cluster.build(eet, {"M": 1}, queue_capacity=0),
            workload=Workload(task_types=[task_type], tasks=tasks),
            scheduler=create_scheduler("MM"),
        )
        result = sim.run()
        assert result.summary.cancelled == 4
        assert result.summary.completed == 0
