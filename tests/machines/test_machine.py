"""Machine runtime: planning quantities, execution lifecycle, energy."""

import numpy as np
import pytest

from repro.core.errors import ConfigurationError, EETError, SimulationStateError
from repro.machines.cluster import Cluster
from repro.machines.eet import EETMatrix
from repro.machines.machine import UNBOUNDED, Machine
from repro.machines.machine_type import MachineType
from repro.machines.power import PowerProfile
from repro.tasks.task import Task, TaskStatus
from repro.tasks.task_type import TaskType


@pytest.fixture
def setup():
    types = [TaskType("T1", 0), TaskType("T2", 1)]
    eet = EETMatrix(np.array([[4.0], [6.0]]), types, ["M"])
    mtype = MachineType(
        "M", 0, power=PowerProfile(idle_watts=10.0, busy_watts=100.0)
    )
    machine = Machine(0, mtype, eet)
    return types, machine


def new_task(types, i=0, type_idx=0, deadline=100.0) -> Task:
    t = Task(
        id=i, task_type=types[type_idx], arrival_time=0.0, deadline=deadline
    )
    t.enqueue_batch()
    return t


def ready_time(machine: Machine, now: float) -> float:
    """The machine's ready time, read through a one-machine cluster."""
    return float(Cluster([machine], machine._eet).ready_times(now)[0])


def queued_work(machine: Machine) -> float:
    return float(machine._state.queued_work[machine._index])


class TestPlanning:
    def test_eet_for(self, setup):
        types, machine = setup
        assert machine.eet_for(new_task(types, type_idx=1)) == 6.0

    def test_unknown_task_type_raises_eet_error(self, setup):
        _, machine = setup
        alien = Task(id=9, task_type=TaskType("T9", 9), arrival_time=0.0,
                     deadline=9.0)
        with pytest.raises(EETError, match="unknown task type 'T9'"):
            machine.eet_for(alien)

    def test_machine_type_without_eet_column_is_refused(self, setup):
        _, machine = setup
        with pytest.raises(EETError, match="unknown machine type 'GPU'"):
            Machine(1, MachineType("GPU", 1), machine._eet)

    def test_idle_ready_time_is_now(self, setup):
        types, machine = setup
        assert ready_time(machine, 5.0) == 5.0

    def test_ready_time_includes_running_remainder(self, setup):
        types, machine = setup
        machine.enqueue(new_task(types, 0), now=0.0)
        machine.start_next(0.0)
        assert ready_time(machine, 1.0) == 4.0  # 3 remaining at t=1 + 0 queued

    def test_ready_time_includes_queued_work(self, setup):
        types, machine = setup
        machine.enqueue(new_task(types, 0, type_idx=0), now=0.0)
        machine.start_next(0.0)
        machine.enqueue(new_task(types, 1, type_idx=1), now=0.0)
        # at t=0: 4 remaining + 6 queued
        assert ready_time(machine, 0.0) == 10.0

    def test_queued_work_incremental_consistency(self, setup):
        types, machine = setup
        tasks = [new_task(types, i, type_idx=i % 2) for i in range(4)]
        machine.enqueue(tasks[0], 0.0)
        machine.start_next(0.0)
        for t in tasks[1:]:
            machine.enqueue(t, 0.0)
        expected = sum(machine.eet_for(t) for t in machine.queue)
        assert queued_work(machine) == pytest.approx(expected)
        machine.drop_queued(tasks[2])
        expected = sum(machine.eet_for(t) for t in machine.queue)
        assert queued_work(machine) == pytest.approx(expected)


def slots(machine: Machine) -> float:
    return machine._state.slots[machine._index]


class TestQueue:
    """The machine queue: a FIFO whose free slots live in ``ClusterState``."""

    def bounded(self, setup, capacity):
        types, machine = setup
        return types, Machine(0, machine.machine_type, machine._eet, queue_capacity=capacity)

    def test_unbounded_default(self, setup):
        _, machine = setup
        assert machine.queue_capacity == UNBOUNDED
        assert slots(machine) == UNBOUNDED
        assert machine.can_accept()

    def test_bounded_slots_shrink_and_refill(self, setup):
        types, machine = self.bounded(setup, 2)
        assert slots(machine) == 2.0
        machine.enqueue(new_task(types, 0), 0.0)
        assert slots(machine) == 1.0
        machine.start_next(0.0)
        assert slots(machine) == 2.0

    @pytest.mark.parametrize("capacity", [0, 2.0, 5])
    def test_integral_capacities_accepted(self, setup, capacity):
        _, machine = self.bounded(setup, capacity)
        assert machine.queue_capacity == capacity
        assert machine.can_accept() is (capacity > 0)

    @pytest.mark.parametrize(
        "capacity", [1.5, -1, float("nan"), -UNBOUNDED, True, "x", None]
    )
    def test_invalid_capacity_rejected(self, setup, capacity):
        with pytest.raises(ConfigurationError, match="queue_capacity"):
            self.bounded(setup, capacity)

    def test_enqueue_onto_full_queue_raises(self, setup):
        types, machine = self.bounded(setup, 1)
        machine.enqueue(new_task(types, 0), 0.0)
        assert not machine.can_accept()
        refused = new_task(types, 1)
        with pytest.raises(SimulationStateError, match="saturated"):
            machine.enqueue(refused, 0.0)
        assert refused.status is TaskStatus.IN_BATCH_QUEUE  # refused before assign
        assert len(machine.queue) == 1
        assert slots(machine) == 0.0

    def test_zero_capacity_always_full(self, setup):
        types, machine = self.bounded(setup, 0)
        with pytest.raises(SimulationStateError):
            machine.enqueue(new_task(types, 0), 0.0)

    def test_fifo_order(self, setup):
        types, machine = setup
        tasks = [new_task(types, i) for i in range(3)]
        for t in tasks:
            machine.enqueue(t, 0.0)
        assert machine.queue[0] is tasks[0]
        assert tasks[1] in machine.queue
        started = []
        for now in (0.0, 4.0, 8.0):
            if machine.running is not None:
                machine.finish_running(now)
            started.append(machine.start_next(now))
        assert started == tasks

    def test_drop_queued_keeps_the_others_in_order(self, setup):
        types, machine = setup
        tasks = [new_task(types, i) for i in range(3)]
        for t in tasks:
            machine.enqueue(t, 0.0)
        assert machine.drop_queued(tasks[1])
        assert list(machine.queue) == [tasks[0], tasks[2]]

    def test_fail_evicts_running_first_then_queue_in_order(self, setup):
        types, machine = self.bounded(setup, 3)
        tasks = [new_task(types, i) for i in range(4)]
        machine.enqueue(tasks[0], 0.0)
        machine.start_next(0.0)
        for t in tasks[1:]:
            machine.enqueue(t, 0.0)
        assert machine.fail(1.0) == tasks
        assert len(machine.queue) == 0
        assert slots(machine) == 0.0
        machine.repair(2.0)
        assert slots(machine) == 3.0


class TestLifecycle:
    def test_start_next_idle_empty_returns_none(self, setup):
        _, machine = setup
        assert machine.start_next(0.0) is None

    def test_start_next_runs_head(self, setup):
        types, machine = setup
        t = new_task(types, 0)
        machine.enqueue(t, 0.0)
        started = machine.start_next(0.0)
        assert started is t
        assert t.status is TaskStatus.RUNNING
        assert machine.run_finishes_at == 4.0

    def test_start_next_busy_returns_none(self, setup):
        types, machine = setup
        machine.enqueue(new_task(types, 0), 0.0)
        machine.start_next(0.0)
        machine.enqueue(new_task(types, 1), 0.0)
        assert machine.start_next(0.0) is None

    def test_custom_runtime_overrides_eet(self, setup):
        types, machine = setup
        machine.enqueue(new_task(types, 0), 0.0)
        started = machine.start_next(0.0, runtime=7.5)
        assert started.execution_time == 7.5
        assert machine.run_finishes_at == 7.5

    def test_finish_running(self, setup):
        types, machine = setup
        t = new_task(types, 0)
        machine.enqueue(t, 0.0)
        machine.start_next(0.0)
        finished = machine.finish_running(4.0)
        assert finished is t
        assert t.status is TaskStatus.COMPLETED
        assert machine.is_idle
        assert machine.completed_count == 1
        assert t.energy == pytest.approx(400.0)  # 100 W × 4 s

    def test_finish_without_running_raises(self, setup):
        _, machine = setup
        with pytest.raises(SimulationStateError):
            machine.finish_running(1.0)

    def test_drop_running(self, setup):
        types, machine = setup
        t = new_task(types, 0, deadline=3.0)
        machine.enqueue(t, 0.0)
        machine.start_next(0.0)
        dropped = machine.drop_running(3.0)
        assert dropped is t
        assert machine.is_idle
        assert machine.missed_count == 1
        assert t.energy == pytest.approx(300.0)  # partial run energy

    def test_drop_queued(self, setup):
        types, machine = setup
        machine.enqueue(new_task(types, 0), 0.0)
        machine.start_next(0.0)
        waiting = new_task(types, 1)
        machine.enqueue(waiting, 0.0)
        assert machine.drop_queued(waiting)
        assert machine.missed_count == 1
        assert len(machine.queue) == 0

    def test_drop_queued_absent(self, setup):
        types, machine = setup
        assert not machine.drop_queued(new_task(types, 9))

    def test_head_in_transit_blocks_start(self, setup):
        types, machine = setup
        t = new_task(types, 0)
        t.available_at = 5.0
        machine.enqueue(t, 0.0)
        assert machine.start_next(0.0) is None
        assert machine.start_next(5.0) is t


class TestEnergyAccounting:
    def test_idle_then_busy_then_finalize(self, setup):
        types, machine = setup
        t = new_task(types, 0)
        machine.enqueue(t, 0.0)
        machine.start_next(2.0)        # idle 0..2
        machine.finish_running(6.0)    # busy 2..6
        machine.finalize_energy(10.0)  # idle 6..10
        meter = machine.energy
        assert meter.idle_time == pytest.approx(6.0)
        assert meter.busy_time == pytest.approx(4.0)
        assert meter.idle_energy == pytest.approx(60.0)
        assert meter.busy_energy == pytest.approx(400.0)

    def test_utilization(self, setup):
        types, machine = setup
        machine.enqueue(new_task(types, 0), 0.0)
        machine.start_next(0.0)
        machine.finish_running(4.0)
        machine.finalize_energy(8.0)
        assert machine.energy.utilization() == pytest.approx(0.5)


class TestMemoryAdmission:
    def test_memory_constrained_acceptance(self):
        types = [TaskType("big", 0, memory=800.0), TaskType("small", 1, memory=100.0)]
        eet = EETMatrix(np.array([[4.0], [2.0]]), types, ["M"])
        mtype = MachineType("M", 0, memory_capacity=1000.0)
        machine = Machine(0, mtype, eet)
        big = Task(id=0, task_type=types[0], arrival_time=0.0, deadline=99.0)
        big.enqueue_batch()
        machine.enqueue(big, 0.0)
        another_big = Task(id=1, task_type=types[0], arrival_time=0.0, deadline=99.0)
        small = Task(id=2, task_type=types[1], arrival_time=0.0, deadline=99.0)
        assert not machine.can_accept(another_big)  # 800+800 > 1000
        assert machine.can_accept(small)            # 800+100 <= 1000

    def test_unconstrained_when_no_capacity(self, setup):
        types, machine = setup
        t = new_task(types, 0)
        assert machine.can_accept(t)
        assert machine.can_accept()
