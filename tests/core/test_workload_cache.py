"""``Scenario.build_workload`` builds each task once and caches no task.

The first build returns the workload it generated; the cache keeps the
pristine columns (ids, type indices, arrivals, deadlines, extras), and a
later build constructs every task exactly once from them.
"""

import dataclasses

import pytest

from repro.scenarios import build_scenario
from repro.tasks.task import Task, TaskStatus
from repro.tasks.workload import WorkloadColumns


@pytest.fixture
def constructions(monkeypatch):
    """Counts ``Task`` constructions (every one runs ``__post_init__``)."""
    counter = {"tasks": 0}
    original = Task.__post_init__

    def counting(self):
        counter["tasks"] += 1
        original(self)

    monkeypatch.setattr(Task, "__post_init__", counting)
    return counter


def generator_scenario():
    return build_scenario("classroom_homogeneous", seed=4)


def count_scenario():
    scenario = build_scenario("classroom_homogeneous", seed=4)
    return dataclasses.replace(
        scenario, generator={"n_tasks": 60, "intensity": "high"}
    )


def trace_scenario():
    return build_scenario("trace_replay", seed=4)


SCENARIOS = [
    pytest.param(generator_scenario, id="generator-duration"),
    pytest.param(count_scenario, id="generator-n_tasks"),
    pytest.param(trace_scenario, id="trace"),
]


def pristine(workload):
    return [
        (t.id, t.task_type, t.arrival_time, t.deadline, t.extras)
        for t in workload
    ]


@pytest.mark.parametrize("make", SCENARIOS)
class TestBuildOnce:
    def test_first_and_cached_builds_construct_each_task_once(
        self, make, constructions
    ):
        scenario = make()
        first = scenario.build_workload()
        assert len(first) > 0
        assert constructions["tasks"] == len(first)

        constructions["tasks"] = 0
        second = scenario.build_workload()
        assert constructions["tasks"] == len(second) == len(first)
        assert pristine(second) == pristine(first)
        assert all(a is not b for a, b in zip(first, second))

    def test_running_the_first_build_leaves_a_cached_build_pristine(self, make):
        scenario = make()
        engine = scenario.build_simulator()
        later = scenario.build_workload()
        engine.run()
        assert any(t.status is not TaskStatus.CREATED for t in engine.workload)
        for task in later:
            assert task.status is TaskStatus.CREATED
            assert task.machine is None
            assert task.completion_time is None
        assert pristine(later) == pristine(engine.workload)
        if scenario.trace is not None:
            assert all(task.extras for task in later)

    def test_the_cache_holds_no_task(self, make):
        scenario = make()
        scenario.build_workload()
        scenario.build_workload()
        _, columns = scenario._workload_cache
        assert isinstance(columns, WorkloadColumns)
        for field in dataclasses.fields(columns):
            for value in getattr(columns, field.name):
                assert not isinstance(value, Task)


def test_a_new_replication_rebuilds_the_cache(constructions):
    scenario = generator_scenario()
    first = scenario.build_workload(replication=0)
    other = scenario.build_workload(replication=1)
    assert pristine(other) != pristine(first)
    assert constructions["tasks"] == len(first) + len(other)

