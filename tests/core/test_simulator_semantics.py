"""Paper semantics: deadlines, cancellation, dropping, timing exactness.

Every test here is a hand-computed micro-trace: one or two machines with
integer EETs, so assertion values are exact.
"""

import numpy as np

from repro.core.simulator import Simulator
from repro.machines.cluster import Cluster
from repro.machines.eet import EETMatrix
from repro.machines.machine import UNBOUNDED
from repro.scheduling.registry import create_scheduler
from repro.tasks.task import DropStage, Task, TaskStatus
from repro.tasks.task_type import TaskType
from repro.tasks.workload import Workload


def single_machine_setup(eet_value=10.0):
    """One task type, one machine, EET = eet_value."""
    task_type = TaskType("T", 0)
    eet = EETMatrix(np.array([[eet_value]]), [task_type], ["M"])
    return task_type, eet


def run_tasks(
    eet, task_type, specs, scheduler="FCFS", queue_capacity=UNBOUNDED, **kwargs
):
    """specs: list of (arrival, deadline). Returns tasks after the run."""
    tasks = [
        Task(id=i, task_type=task_type, arrival_time=a, deadline=d)
        for i, (a, d) in enumerate(specs)
    ]
    workload = Workload(task_types=[task_type], tasks=tasks)
    cluster = Cluster.build(eet, {"M": 1}, queue_capacity=queue_capacity)
    sim = Simulator(
        cluster=cluster,
        workload=workload,
        scheduler=create_scheduler(scheduler),
        **kwargs,
    )
    sim.run()
    return {t.id: t for t in tasks}, sim


class TestSequentialExecution:
    def test_single_task_timing(self):
        task_type, eet = single_machine_setup(10.0)
        tasks, _ = run_tasks(eet, task_type, [(0.0, 100.0)])
        t = tasks[0]
        assert t.status is TaskStatus.COMPLETED
        assert t.start_time == 0.0
        assert t.completion_time == 10.0
        assert t.response_time == 10.0
        assert t.wait_time == 0.0

    def test_fifo_queueing(self):
        task_type, eet = single_machine_setup(10.0)
        tasks, _ = run_tasks(eet, task_type, [(0.0, 100.0), (0.0, 100.0)])
        assert tasks[0].completion_time == 10.0
        assert tasks[1].start_time == 10.0
        assert tasks[1].completion_time == 20.0
        assert tasks[1].wait_time == 10.0

    def test_idle_gap_between_tasks(self):
        task_type, eet = single_machine_setup(5.0)
        tasks, _ = run_tasks(eet, task_type, [(0.0, 100.0), (20.0, 100.0)])
        assert tasks[0].completion_time == 5.0
        assert tasks[1].start_time == 20.0  # machine idled 5..20
        assert tasks[1].completion_time == 25.0


class TestDeadlineSemantics:
    def test_completion_exactly_at_deadline_is_on_time(self):
        task_type, eet = single_machine_setup(10.0)
        tasks, _ = run_tasks(eet, task_type, [(0.0, 10.0)])
        t = tasks[0]
        assert t.status is TaskStatus.COMPLETED
        assert t.on_time

    def test_running_task_dropped_at_deadline(self):
        task_type, eet = single_machine_setup(10.0)
        tasks, _ = run_tasks(eet, task_type, [(0.0, 6.0)])
        t = tasks[0]
        assert t.status is TaskStatus.MISSED
        assert t.drop_stage is DropStage.EXECUTING
        assert t.missed_time == 6.0
        assert t.completion_time is None

    def test_drop_frees_machine_for_next_task(self):
        task_type, eet = single_machine_setup(10.0)
        # Task 0 would run 0..10 but is dropped at 6; task 1 then runs 6..16.
        tasks, _ = run_tasks(eet, task_type, [(0.0, 6.0), (0.0, 100.0)])
        assert tasks[0].status is TaskStatus.MISSED
        assert tasks[1].start_time == 6.0
        assert tasks[1].completion_time == 16.0

    def test_queued_task_dropped_at_deadline(self):
        task_type, eet = single_machine_setup(10.0)
        # Task 1 queues behind task 0 (busy 0..10) and its deadline 8 fires
        # while it waits in the machine queue (immediate mode maps on arrival).
        tasks, _ = run_tasks(eet, task_type, [(0.0, 100.0), (0.0, 8.0)])
        t = tasks[1]
        assert t.status is TaskStatus.MISSED
        assert t.drop_stage is DropStage.MACHINE_QUEUE
        assert t.start_time is None
        assert t.missed_time == 8.0

    def test_batch_mode_cancellation_before_assignment(self):
        task_type, eet = single_machine_setup(10.0)
        # Batch mode, queue capacity 0 is invalid for progress; use capacity 1:
        # task 0 runs 0..10; task 1 occupies the single queue slot; task 2
        # stays in the batch queue and expires at t=5 -> CANCELLED.
        tasks, _ = run_tasks(
            eet,
            task_type,
            [(0.0, 100.0), (0.0, 100.0), (0.0, 5.0)],
            scheduler="MM",
            queue_capacity=1,
        )
        # MM maps the earliest-finishing first: tasks 0 and 1 get mapped
        # (machine + one queue slot); task 2 cannot be mapped and expires.
        statuses = {i: t.status for i, t in tasks.items()}
        assert statuses[2] is TaskStatus.CANCELLED
        assert tasks[2].cancelled_time == 5.0
        assert tasks[2].machine is None

    def test_cancelled_never_touches_a_machine(self):
        task_type, eet = single_machine_setup(10.0)
        tasks, sim = run_tasks(
            eet,
            task_type,
            [(0.0, 100.0), (0.0, 100.0), (0.0, 5.0)],
            scheduler="MM",
            queue_capacity=1,
        )
        machine = sim.cluster[0]
        # cancelled task is not in the machine's counters
        assert machine.completed_count == 2
        assert machine.missed_count == 0

    def test_drop_on_deadline_false_lets_tasks_finish_late(self):
        task_type, eet = single_machine_setup(10.0)
        tasks, _ = run_tasks(
            eet, task_type, [(0.0, 6.0)], drop_on_deadline=False
        )
        t = tasks[0]
        assert t.status is TaskStatus.COMPLETED
        assert t.completion_time == 10.0
        assert not t.on_time

    def test_infinite_deadline_never_dropped(self):
        task_type, eet = single_machine_setup(10.0)
        tasks, _ = run_tasks(eet, task_type, [(0.0, float("inf"))])
        assert tasks[0].status is TaskStatus.COMPLETED


class TestConservation:
    def test_all_outcomes_sum_to_total(self):
        task_type, eet = single_machine_setup(10.0)
        specs = [(float(i), float(i) + 12.0) for i in range(10)]
        _, sim = run_tasks(eet, task_type, specs)
        summary = sim.result().summary
        assert (
            summary.completed + summary.cancelled + summary.missed
            == summary.total_tasks
            == 10
        )

    def test_completed_equals_on_time_in_drop_mode(self):
        task_type, eet = single_machine_setup(7.0)
        specs = [(float(2 * i), float(2 * i) + 9.0) for i in range(8)]
        _, sim = run_tasks(eet, task_type, specs)
        summary = sim.result().summary
        assert summary.completed == summary.on_time


class TestHeterogeneousMapping:
    def test_mect_uses_load_and_eet(self, eet_3x2, make_workload):
        """Two T1 tasks at t=0: first to fast M1 (EET 4); the second's options
        are M1 busy-until-4 + 4 = 8 vs idle M2 = 10, so both go to M1."""
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1})
        workload = make_workload([(0, 0.0, 100.0), (0, 0.0, 100.0)])
        sim = Simulator(
            cluster=cluster,
            workload=workload,
            scheduler=create_scheduler("MECT"),
        )
        sim.run()
        machines = {t.id: t.machine.name for t in workload}
        assert machines == {0: "M1-0", 1: "M1-1"} or machines == {
            0: "M1-0",
            1: "M1-0",
        }
        # exactly: single M1 instance named 'M1-0'
        assert machines[0] == "M1-0" and machines[1] == "M1-0"

    def test_mect_overflows_to_slower_machine(self, eet_3x2, make_workload):
        """Three T1 tasks at t=0: third sees M1 at 8+4=12 vs M2 at 10 -> M2."""
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1})
        workload = make_workload(
            [(0, 0.0, 100.0), (0, 0.0, 100.0), (0, 0.0, 100.0)]
        )
        sim = Simulator(
            cluster=cluster,
            workload=workload,
            scheduler=create_scheduler("MECT"),
        )
        sim.run()
        assert workload[2].machine.name == "M2-1"
        assert workload[2].completion_time == 10.0
