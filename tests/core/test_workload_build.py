"""``Scenario.build_workload`` constructs each task exactly once."""

import dataclasses

import pytest

from repro.scenarios import build_scenario
from repro.tasks.task import Task


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


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(generator_scenario, id="generator-duration"),
        pytest.param(count_scenario, id="generator-n_tasks"),
        pytest.param(trace_scenario, id="trace"),
    ],
)
def test_a_build_constructs_each_task_once(make, constructions):
    scenario = make()
    workload = scenario.build_workload()
    assert len(workload) > 0
    assert constructions["tasks"] == len(workload)
