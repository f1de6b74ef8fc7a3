"""Scheduling-overhead model: decision latency charged to mapped tasks."""

import numpy as np
import pytest

from repro.core.config import Scenario
from repro.core.errors import ConfigurationError
from repro.core.simulator import Simulator
from repro.machines.cluster import Cluster
from repro.machines.eet import EETMatrix
from repro.scheduling.overhead import SchedulingOverhead
from repro.scheduling.registry import create_scheduler
from repro.tasks.task import Task
from repro.tasks.task_type import TaskType
from repro.tasks.workload import Workload


class TestModel:
    def test_defaults_free(self):
        model = SchedulingOverhead()
        assert model.is_free
        assert model.pass_delay(10, 10) == 0.0

    def test_pass_delay_formula(self):
        model = SchedulingOverhead(per_pass=0.5, per_cell=0.01)
        assert model.pass_delay(4, 3) == pytest.approx(0.5 + 0.12)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            SchedulingOverhead(per_pass=-1.0)
        with pytest.raises(ConfigurationError):
            SchedulingOverhead(per_cell=-0.1)

    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            SchedulingOverhead().pass_delay(-1, 2)

    def test_spec_round_trip(self):
        model = SchedulingOverhead(per_pass=0.2, per_cell=0.05)
        clone = SchedulingOverhead.from_spec(model.spec())
        assert clone == model

    def test_from_none(self):
        assert SchedulingOverhead.from_spec(None).is_free

    @pytest.mark.parametrize(
        "spec,key",
        [
            ({"per_task": 1}, "per_task"),
            ({"per_pass": float("nan")}, "per_pass"),
            ({"per_pass": float("inf")}, "per_pass"),
            ({"per_pass": "x"}, "per_pass"),
            ([0.5], "per_pass"),
        ],
        ids=["unknown_key", "nan", "inf", "string", "not_a_mapping"],
    )
    def test_bad_spec_rejected(self, spec, key):
        with pytest.raises(ConfigurationError, match=key):
            SchedulingOverhead.from_spec(spec)


def single_machine(eet_value=4.0):
    task_type = TaskType("T", 0)
    eet = EETMatrix(np.array([[eet_value]]), [task_type], ["M"])
    return task_type, eet


class TestInSimulation:
    def test_fixed_overhead_delays_start(self):
        task_type, eet = single_machine()
        task = Task(id=0, task_type=task_type, arrival_time=0.0, deadline=99.0)
        sim = Simulator(
            cluster=Cluster.build(eet, {"M": 1}),
            workload=Workload(task_types=[task_type], tasks=[task]),
            scheduler=create_scheduler("FCFS"),
            scheduling_overhead=SchedulingOverhead(per_pass=0.5),
        )
        sim.run()
        assert task.start_time == pytest.approx(0.5)
        assert task.completion_time == pytest.approx(4.5)

    def test_per_cell_overhead_scales_with_backlog(self):
        """Batch passes pay per examined cell, so backlog raises latency.

        Capacity 1 forces tasks 1 and 2 to wait in the batch queue while
        task 0 occupies the slot; the pass at task 0's completion examines a
        2-task backlog and costs 2 × 0.1 s.
        """
        task_type, eet = single_machine()
        tasks = [
            Task(id=i, task_type=task_type, arrival_time=0.0, deadline=1e9)
            for i in range(3)
        ]
        sim = Simulator(
            cluster=Cluster.build(eet, {"M": 1}, queue_capacity=1),
            workload=Workload(task_types=[task_type], tasks=tasks),
            scheduler=create_scheduler("MM"),
            scheduling_overhead=SchedulingOverhead(per_cell=0.1),
        )
        sim.run()
        # Task 0: its arrival pass saw 1 pending × 1 machine -> 0.1 s.
        assert tasks[0].start_time == pytest.approx(0.1)
        # Task 0 runs 0.1..4.1; the completion pass sees backlog [t1, t2]
        # -> 0.2 s decision latency; t1 starts at 4.3.
        assert tasks[1].start_time == pytest.approx(4.3)

    def test_zero_overhead_is_baseline(self):
        task_type, eet = single_machine()
        task = Task(id=0, task_type=task_type, arrival_time=0.0, deadline=99.0)
        sim = Simulator(
            cluster=Cluster.build(eet, {"M": 1}),
            workload=Workload(task_types=[task_type], tasks=[task]),
            scheduler=create_scheduler("FCFS"),
        )
        sim.run()
        assert task.start_time == 0.0

    def test_overhead_costs_completions_under_pressure(self, eet_3x2):
        base = Scenario(
            eet=eet_3x2,
            machine_counts={"M1": 1, "M2": 1},
            scheduler="MECT",
            generator={"duration": 200.0, "intensity": "high"},
            seed=3,
        )
        from dataclasses import replace

        # Small overheads can even *help* under drop-on-deadline (the delay
        # throttles doomed tasks before they waste machine time), so the
        # assertion sits at an operating point where decision latency
        # clearly dominates.
        slow = replace(
            base, scheduling_overhead={"per_pass": 15.0}, name="slow"
        )
        slow_summary = slow.run().summary
        base_summary = base.run().summary
        assert slow_summary.completion_rate < base_summary.completion_rate
        assert slow_summary.mean_wait_time > base_summary.mean_wait_time

    def test_batch_pays_more_than_immediate_for_per_cell(self, eet_3x2):
        """The §3 claim: immediate mode imposes a lower overhead."""
        from dataclasses import replace

        base = Scenario(
            eet=eet_3x2,
            machine_counts={"M1": 1, "M2": 1},
            scheduler="MECT",
            generator={"duration": 300.0, "intensity": "medium"},
            seed=5,
            scheduling_overhead={"per_cell": 0.02},
        )
        immediate = base.run()
        batch = replace(
            base, scheduler="MM", queue_capacity=3, name="batch"
        ).run()
        # Immediate passes see 1 pending task; batch passes see the backlog.
        imm_wait = immediate.summary.mean_wait_time
        batch_wait = batch.summary.mean_wait_time
        assert batch_wait > imm_wait

    def test_json_round_trip(self, scenario_factory):
        from dataclasses import replace

        scenario = replace(
            scenario_factory("MECT"),
            scheduling_overhead={"per_pass": 0.1, "per_cell": 0.01},
        )
        from repro.core.config import Scenario as S

        clone = S.from_json(scenario.to_json())
        assert clone.scheduling_overhead == {"per_pass": 0.1, "per_cell": 0.01}
        assert (
            clone.run().summary.as_dict() == scenario.run().summary.as_dict()
        )
