"""The one-task arrival shortcut makes the decision the scheduling pass makes.

An arriving task that finds the batch queue empty is placed by the engine
directly: with an immediate policy's ``choose_machine``, or with the
``Cluster`` query that answers a batch policy's one-task pass. The run must
be the one the full pass gives, record for record and event for event; a
policy that overrides its family's ``schedule`` sees every arrival's pass.
"""

import numpy as np
import pytest

from repro.core.simulator import Simulator
from repro.machines.cluster import Cluster
from repro.machines.eet import EETMatrix
from repro.scenarios import build_scenario
from repro.scheduling.registry import scheduler_class
from repro.tasks.task import Task
from repro.tasks.task_type import TaskType
from repro.tasks.workload import Workload

PRESETS = ["classroom_homogeneous", "edge_ai", "satellite_imaging", "trace_replay"]


def _every_pass(name):
    """A subclass of policy *name* whose ``schedule`` counts, then defers."""

    class EveryPass(scheduler_class(name)):
        def __init__(self, **params):
            super().__init__(**params)
            self.passes = []

        def schedule(self, ctx):
            self.passes.append(tuple(ctx.pending))
            return super().schedule(ctx)

    return EveryPass()


def _run(preset, scheduler):
    scenario = build_scenario(preset)
    scenario.build_scheduler = lambda: scheduler
    simulator = scenario.build_simulator()
    result = simulator.run()
    return simulator, (
        result.summary.as_dict(),
        result.task_records,
        result.machine_records,
        result.events_processed,
    )


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("policy", ["MM", "MSD", "ELARE", "FELARE", "MECT"])
def test_shortcut_arrivals_equal_the_pass(preset, policy):
    stock = scheduler_class(policy)()
    passes = []
    schedule = stock.schedule

    def counted(ctx):
        passes.append(len(ctx.pending))
        return schedule(ctx)

    # An instance attribute: the policy's class still keeps its schedule.
    stock.schedule = counted
    fast, got = _run(preset, stock)
    reference = _every_pass(policy)
    slow, want = _run(preset, reference)
    assert fast._one_task_shortcut and not slow._one_task_shortcut
    assert got == want
    assert len(passes) < len(reference.passes)


@pytest.mark.parametrize("policy", ["MM", "ELARE", "MECT"])
def test_overriding_schedule_sees_every_arrival_pass(policy):
    scheduler = _every_pass(policy)
    simulator, _ = _run("edge_ai", scheduler)
    seen = {task.id for pending in scheduler.passes for task in pending}
    # A task whose deadline is its arrival is cancelled by the sweep before
    # any pass; every other task's arrival runs a pass it is pending in.
    expected = {
        task.id
        for task in simulator.workload
        if task.deadline > task.arrival_time
    }
    assert expected <= seen
    assert len(scheduler.passes) >= len(expected)


@pytest.mark.parametrize("policy", ["MM", "ELARE", "MECT"])
def test_a_task_due_on_arrival_is_cancelled_alike(policy):
    kind = TaskType("T", 0)
    eet = EETMatrix(np.array([[2.0, 3.0]]), [kind], ["A", "B"])

    def run(scheduler):
        tasks = [
            Task(id=i, task_type=kind, arrival_time=float(i), deadline=deadline)
            for i, deadline in enumerate([9.0, 1.0, 9.0, 3.0])
        ]
        result = Simulator(
            Cluster.build(eet, [1, 1], queue_capacity=1),
            Workload([kind], tasks),
            scheduler,
            seed=0,
        ).run()
        return result.summary.as_dict(), result.task_records

    got = run(scheduler_class(policy)())
    assert got == run(_every_pass(policy))
    status = {row["task_id"]: row["status"] for row in got[1]}
    assert status[1] == "cancelled"
