"""Failure injection: model, machine mechanics, end-to-end robustness."""

import math

import numpy as np
import pytest

from repro.core.config import Scenario
from repro.core.errors import ConfigurationError, SimulationStateError
from repro.machines.cluster import Cluster
from repro.machines.eet import EETMatrix
from repro.machines.failures import FailureModel
from repro.tasks.task import Task, TaskStatus
from repro.tasks.task_type import TaskType
from repro.tasks.workload import Workload


class TestFailureModel:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FailureModel(mtbf=0.0, mttr=1.0)
        with pytest.raises(ConfigurationError):
            FailureModel(mtbf=1.0, mttr=-1.0)
        with pytest.raises(ConfigurationError):
            FailureModel(mtbf=1.0, mttr=1.0, per_machine_type={"A": (0.0, 1.0)})

    def test_per_type_overrides(self, cluster_3x2):
        model = FailureModel(
            mtbf=100.0, mttr=10.0, per_machine_type={"M2": (50.0, 5.0)}
        )
        assert model.parameters_for(cluster_3x2[0]) == (100.0, 10.0)
        assert model.parameters_for(cluster_3x2[1]) == (50.0, 5.0)

    def test_expected_events_over_a_window(self):
        model = FailureModel(
            mtbf=10.0, mttr=10.0, per_machine_type={"GPU": (40.0, 10.0)}
        )
        # 2 events per cycle x 100 s x (2 CPUs / 20 s + 1 GPU / 50 s) = 24.
        assert model.check_window({"CPU": 2, "GPU": 1}, 100.0) == pytest.approx(24.0)
        with pytest.raises(ConfigurationError, match="fail and repair events"):
            FailureModel(mtbf=1e-6, mttr=1e-6).check_window({"CPU": 4}, 60.0)

    def test_samples_positive(self, cluster_3x2):
        model = FailureModel(mtbf=10.0, mttr=2.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert model.sample_uptime(cluster_3x2[0], rng) > 0
            assert model.sample_downtime(cluster_3x2[0], rng) > 0


class TestMachineFailMechanics:
    def _cluster_with_work(self, task_types, eet_3x2):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1})
        machine = cluster[0]
        running = Task(
            id=0, task_type=task_types[0], arrival_time=0.0, deadline=99.0
        )
        running.enqueue_batch()
        machine.enqueue(running, 0.0)
        machine.start_next(0.0)
        queued = Task(
            id=1, task_type=task_types[1], arrival_time=0.0, deadline=99.0
        )
        queued.enqueue_batch()
        machine.enqueue(queued, 0.0)
        return cluster, running, queued

    def _machine_with_work(self, task_types, eet_3x2):
        cluster, running, queued = self._cluster_with_work(task_types, eet_3x2)
        return cluster[0], running, queued

    def test_fail_evicts_running_and_queued(self, task_types, eet_3x2):
        machine, running, queued = self._machine_with_work(task_types, eet_3x2)
        evicted = machine.fail(2.0)
        assert evicted == [running, queued]
        assert machine.is_idle
        assert len(machine.queue) == 0
        assert not machine.up
        assert machine.failure_count == 1

    def test_down_machine_rejects_everything(self, task_types, eet_3x2):
        cluster, *_ = self._cluster_with_work(task_types, eet_3x2)
        machine = cluster[0]
        machine.fail(2.0)
        assert not machine.can_accept()
        assert cluster.ready_times(5.0)[0] == math.inf
        assert machine.start_next(5.0) is None

    def test_repair_restores(self, task_types, eet_3x2):
        cluster, *_ = self._cluster_with_work(task_types, eet_3x2)
        machine = cluster[0]
        machine.fail(2.0)
        machine.repair(7.0)
        assert machine.up
        assert machine.can_accept()
        assert cluster.ready_times(7.0)[0] == 7.0

    def test_downtime_metered_as_off(self, task_types, eet_3x2):
        machine, *_ = self._machine_with_work(task_types, eet_3x2)
        machine.fail(2.0)
        machine.repair(7.0)
        assert machine.energy._off_time == pytest.approx(5.0)
        assert machine.energy.busy_time == pytest.approx(2.0)
        assert machine.energy.availability() == pytest.approx(2.0 / 7.0)

    def test_double_fail_rejected(self, task_types, eet_3x2):
        machine, *_ = self._machine_with_work(task_types, eet_3x2)
        machine.fail(2.0)
        with pytest.raises(SimulationStateError):
            machine.fail(3.0)

    def test_repair_up_machine_rejected(self, cluster_3x2):
        with pytest.raises(SimulationStateError):
            cluster_3x2[0].repair(1.0)

    def test_requeue_resets_placement(self, task_types, eet_3x2):
        machine, running, _ = self._machine_with_work(task_types, eet_3x2)
        machine.fail(2.0)
        running.requeue(2.0)
        assert running.status is TaskStatus.IN_BATCH_QUEUE
        assert running.machine is None
        assert running.start_time is None
        assert running.retries == 1


class TestEndToEnd:
    def _scenario(self, mtbf, mttr, *, deadline_slack=1e9, scheduler="MECT"):
        task_type = TaskType("T", 0)
        eet = EETMatrix(np.array([[5.0, 5.0]]), [task_type], ["A", "B"])
        tasks = [
            Task(
                id=i,
                task_type=task_type,
                arrival_time=float(3 * i),
                deadline=float(3 * i) + deadline_slack,
            )
            for i in range(30)
        ]
        workload = Workload(task_types=[task_type], tasks=tasks)
        return Scenario(
            eet=eet,
            machine_counts={"A": 1, "B": 1},
            scheduler=scheduler,
            workload=workload,
            failure_model=FailureModel(mtbf=mtbf, mttr=mttr),
            seed=7,
        )

    def test_conservation_under_failures(self):
        result = self._scenario(mtbf=20.0, mttr=5.0, deadline_slack=40.0).run()
        s = result.summary
        assert s.completed + s.cancelled + s.missed == s.total_tasks == 30

    def test_all_complete_with_generous_deadlines(self):
        """With effectively-infinite deadlines every task survives crashes."""
        result = self._scenario(mtbf=15.0, mttr=3.0).run()
        assert result.summary.completed == 30

    def test_retries_recorded(self):
        scenario = self._scenario(mtbf=10.0, mttr=3.0)
        sim = scenario.build_simulator()
        sim.run()
        assert any(t.retries > 0 for t in sim.workload)

    def test_failures_hurt_tight_deadlines(self):
        healthy = self._scenario(mtbf=1e9, mttr=1.0, deadline_slack=12.0).run()
        failing = self._scenario(mtbf=12.0, mttr=6.0, deadline_slack=12.0).run()
        assert failing.summary.completion_rate < healthy.summary.completion_rate

    def test_simulation_terminates(self):
        """The failure process must not keep the event stream alive forever."""
        result = self._scenario(mtbf=5.0, mttr=1.0).run()
        assert result.events_processed < 50_000

    def test_deterministic_under_failures(self):
        scenario = self._scenario(mtbf=15.0, mttr=4.0, deadline_slack=30.0)
        assert (
            scenario.run().summary.as_dict()
            == scenario.run().summary.as_dict()
        )

    def test_batch_mode_routes_around_down_machine(self):
        scenario = self._scenario(
            mtbf=25.0, mttr=10.0, deadline_slack=60.0, scheduler="MM"
        )
        from dataclasses import replace

        scenario = replace(scenario, queue_capacity=2)
        result = scenario.run()
        s = result.summary
        assert s.completed + s.cancelled + s.missed == 30

    def test_json_round_trip_with_failure_model(self):
        scenario = self._scenario(mtbf=20.0, mttr=5.0, deadline_slack=40.0)
        from repro.core.config import Scenario as S

        clone = S.from_json(scenario.to_json())
        assert clone.failure_model is not None
        assert clone.failure_model.mtbf == 20.0
        assert (
            clone.run().summary.as_dict() == scenario.run().summary.as_dict()
        )
