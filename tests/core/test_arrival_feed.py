"""The arrival feed: each arrival schedules its deadline and the next arrival.

The workloads below are built by hand to force ties at equal timestamps:
two arrivals at the same instant, a deadline equal to its arrival time, an
arrival at the instant of a completion, and one task's deadline at another
task's arrival. The processed ``(time, type, task id, cluster)`` sequence
is asserted exactly; it is the order a heap filled with every arrival and
deadline up front pops.
"""

import numpy as np
import pytest

from repro.core.events import EventType
from repro.core.simulator import Simulator
from repro.federation import ClusterSpec, FederationSpec
from repro.federation.simulator import FederatedSimulator
from repro.machines.cluster import Cluster
from repro.machines.eet import EETMatrix
from repro.machines.failures import FailureModel
from repro.net import InterClusterTopology
from repro.scenarios import build_scenario
from repro.scheduling.registry import create_scheduler
from repro.tasks.task import Task
from repro.tasks.task_type import TaskType
from repro.tasks.workload import Workload

INF = float("inf")

# (type index, arrival, deadline). Tasks 0 and 1 arrive together; task 2's
# deadline is its arrival time, which is also task 1's completion; task 3
# arrives as task 0 completes; task 3's deadline (6.0) is tasks 4 and 5's
# arrival.
TIES = [
    (0, 0.0, 100.0),
    (1, 0.0, 100.0),
    (2, 3.0, 3.0),
    (0, 4.0, 6.0),
    (1, 6.0, 50.0),
    (2, 6.0, INF),
]

A, C, D = "TASK_ARRIVAL", "TASK_COMPLETION", "TASK_DEADLINE"

SIMULATOR_ORDER = [
    (0.0, A, 0, None),
    (0.0, A, 1, None),
    (3.0, C, 1, None),
    (3.0, A, 2, None),
    (3.0, D, 2, None),
    (4.0, C, 0, None),
    (4.0, A, 3, None),
    (6.0, A, 4, None),
    (6.0, A, 5, None),
    (6.0, D, 3, None),
    (9.0, C, 4, None),
    (11.0, C, 5, None),
    (50.0, D, 4, None),
    (100.0, D, 0, None),
    (100.0, D, 1, None),
]

# Two clusters over a 1 s link; shard-owned events carry the shard index,
# gateway arrivals and deadlines carry None.
FEDERATED_ORDER = [
    (0.0, A, 0, None),
    (0.0, A, 1, None),
    (1.0, A, 0, 0),
    (3.0, C, 1, 1),
    (3.0, A, 2, None),
    (3.0, D, 2, None),
    (4.0, A, 3, None),
    (5.0, C, 0, 0),
    (6.0, A, 4, None),
    (6.0, A, 5, None),
    (6.0, D, 3, None),
    (7.0, A, 4, 1),
    (7.0, A, 5, 1),
    (10.0, C, 4, 1),
    (16.0, C, 5, 1),
    (50.0, D, 4, None),
    (100.0, D, 0, None),
    (100.0, D, 1, None),
]


@pytest.fixture
def types():
    return [TaskType("T1", 0), TaskType("T2", 1), TaskType("T3", 2)]


@pytest.fixture
def eet(types):
    return EETMatrix(
        np.array([[4.0, 10.0], [9.0, 3.0], [5.0, 6.0]]), types, ["M1", "M2"]
    )


def workload(types, triples=TIES):
    return Workload(
        task_types=types,
        tasks=[
            Task(id=i, task_type=types[k], arrival_time=a, deadline=d)
            for i, (k, a, d) in enumerate(triples)
        ],
    )


def recorder(log):
    def observe(sim, event):
        payload = event[4]
        task = payload[1] if isinstance(payload, tuple) else payload
        log.append((event[0], event[3].name, task.id, event[5]))

    return observe


def simulator(eet, types, scheduler="MECT", observers=(), **kwargs):
    return Simulator(
        cluster=Cluster.build(eet, {"M1": 1, "M2": 1}),
        workload=workload(types),
        scheduler=create_scheduler(scheduler),
        seed=1,
        observers=observers,
        **kwargs,
    )


def federated(eet, types, observers=()):
    topology = InterClusterTopology()
    topology.set_link("a", "b", 1.0, 0.0)
    spec = FederationSpec(
        clusters=[
            ClusterSpec(name="a", machine_counts={"M1": 1}, weight=1.0),
            ClusterSpec(name="b", machine_counts={"M2": 1}, weight=1.0),
        ],
        gateway="EET_AWARE_REMOTE",
        topology=topology,
    )
    return FederatedSimulator(
        spec, eet, workload(types), seed=5, observers=observers
    )


def build(engine, eet, types, observers=()):
    if engine == "simulator":
        return simulator(eet, types, observers=observers)
    return federated(eet, types, observers=observers)


ENGINES = ["simulator", "federated"]


class TestEventOrder:
    @pytest.mark.parametrize("scheduler", ["MECT", "MM"])
    def test_simulator_ties(self, eet, types, scheduler):
        log = []
        sim = simulator(eet, types, scheduler, observers=[recorder(log)])
        result = sim.run()
        assert log == SIMULATOR_ORDER
        assert result.events_processed == len(SIMULATOR_ORDER)

    def test_federated_ties(self, eet, types):
        log = []
        result = federated(eet, types, observers=[recorder(log)]).run()
        assert log == FEDERATED_ORDER
        assert result.events_processed == len(FEDERATED_ORDER)

    def test_without_deadline_drops_no_deadline_fires(self, eet, types):
        log = []
        sim = simulator(
            eet, types, observers=[recorder(log)], drop_on_deadline=False
        )
        sim.run()
        assert [e for e in log if e[1] == D] == []
        assert [e[2] for e in log if e[1] == A] == [0, 1, 2, 3, 4, 5]


class TestDrivingModes:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_run_step_and_mixed_agree(self, eet, types, engine):
        whole = build(engine, eet, types).run()

        stepped = build(engine, eet, types)
        while stepped.step() is not None:
            pass
        stepped = stepped.result()

        split = build(engine, eet, types)
        while split.now <= 5.0:
            split.step()
        assert not split.is_finished
        split = split.run()

        for result in (stepped, split):
            assert result.summary.as_dict() == whole.summary.as_dict()
            assert result.events_processed == whole.events_processed
            assert result.end_time == whole.end_time

    @pytest.mark.parametrize("engine", ENGINES)
    def test_run_again_returns_the_same_result(self, eet, types, engine):
        sim = build(engine, eet, types)
        first = sim.run()
        events = sim.events_processed
        assert sim.run() is first
        assert sim.events_processed == events

    @pytest.mark.parametrize("engine", ENGINES)
    def test_next_event_time_is_first_arrival(self, eet, types, engine):
        late = [(k, a + 2.5, d + 2.5) for k, a, d in TIES]
        if engine == "simulator":
            sim = Simulator(
                cluster=Cluster.build(eet, {"M1": 1, "M2": 1}),
                workload=workload(types, late),
                scheduler=create_scheduler("MECT"),
            )
        else:
            sim = federated(eet, types)
            sim = FederatedSimulator(sim.spec, eet, workload(types, late))
        first = sim.step()
        assert first[0] == 2.5
        assert first[3] is EventType.TASK_ARRIVAL
        assert first[4].id == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_remaining_arrivals_counts_down(self, eet, types, engine):
        sim = build(engine, eet, types)
        seen = []
        arrived = 0
        assert sim.remaining_arrivals() == len(TIES)
        while (event := sim.step()) is not None:
            if event[3] is EventType.TASK_ARRIVAL and event[5] is None:
                arrived += 1
            seen.append(sim.remaining_arrivals())
            assert sim.remaining_arrivals() == len(TIES) - arrived
        assert seen[-1] == 0
        assert seen == sorted(seen, reverse=True)


class TestHeapAfterConstruction:
    """One arrival waits in the heap, whatever the workload size."""

    @staticmethod
    def kinds(sim):
        counts = {}
        while sim.events:
            event = sim.events.pop()
            counts[event[3]] = counts.get(event[3], 0) + 1
        return counts

    def test_simulator_holds_one_arrival(self):
        sim = build_scenario("scale_heavytail").build_simulator()
        assert len(sim.workload) > 1000
        assert self.kinds(sim) == {EventType.TASK_ARRIVAL: 1}

    def test_failure_events_join_the_one_arrival(self, eet, types):
        sim = simulator(eet, types, failure_model=FailureModel(50.0, 5.0))
        assert self.kinds(sim) == {
            EventType.TASK_ARRIVAL: 1,
            EventType.MACHINE_FAILURE: 2,
        }

    def test_federation_holds_one_arrival_and_the_first_tick(self):
        sim = build_scenario("fed_rebalance").build_simulator()
        assert len(sim.workload) > 100
        assert self.kinds(sim) == {
            EventType.TASK_ARRIVAL: 1,
            EventType.TASK_MIGRATION: 1,
        }

    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_workload_holds_nothing(self, eet, types, engine):
        empty = Workload(task_types=types, tasks=[])
        if engine == "simulator":
            sim = Simulator(
                cluster=Cluster.build(eet, {"M1": 1, "M2": 1}),
                workload=empty,
                scheduler=create_scheduler("MECT"),
            )
        else:
            sim = FederatedSimulator(federated(eet, types).spec, eet, empty)
        assert len(sim.events) == 0
        assert sim.remaining_arrivals() == 0
        assert sim.run().summary.total_tasks == 0
