"""Engine mechanics: stepping, running, results, observers."""

import pytest

from repro.core.errors import SimulationStateError
from repro.core.events import EventType, make_event
from repro.core.simulator import Simulator
from repro.machines.cluster import Cluster
from repro.machines.machine import UNBOUNDED
from repro.scheduling.registry import create_scheduler


def build_sim(
    eet, make_workload, triples, scheduler="MECT", queue_capacity=UNBOUNDED, **kwargs
):
    cluster = Cluster.build(
        eet, {n: 1 for n in eet.machine_type_names}, queue_capacity=queue_capacity
    )
    return Simulator(
        cluster=cluster,
        workload=make_workload(triples),
        scheduler=create_scheduler(scheduler),
        **kwargs,
    )


class TestStepping:
    def test_step_processes_one_event(self, eet_3x2, make_workload):
        sim = build_sim(eet_3x2, make_workload, [(0, 0.0, 100.0)])
        event = sim.step()
        assert event is not None
        assert event[3] is EventType.TASK_ARRIVAL
        assert sim.events_processed == 1

    def test_step_after_finish_returns_none(self, eet_3x2, make_workload):
        sim = build_sim(eet_3x2, make_workload, [(0, 0.0, 100.0)])
        sim.run()
        assert sim.step() is None

    def test_clock_follows_events(self, eet_3x2, make_workload):
        sim = build_sim(eet_3x2, make_workload, [(0, 2.5, 100.0)])
        sim.step()
        assert sim.now == 2.5

    def test_time_starts_at_zero_and_never_moves_back(self, eet_3x2, make_workload):
        sim = build_sim(eet_3x2, make_workload, [(0, 1.0, 100.0), (1, 1.0, 100.0)])
        assert sim.now == 0.0
        sim.step()
        sim.step()  # a second event at the same time is fine
        assert sim.now == 1.0
        sim.events.push(make_event(0.5, EventType.TASK_ARRIVAL))
        with pytest.raises(SimulationStateError, match="time cannot move backwards"):
            sim.step()
        assert sim.now == 1.0

    def test_empty_workload_finishes_immediately(self, eet_3x2, task_types):
        from repro.tasks.workload import Workload

        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1})
        sim = Simulator(
            cluster=cluster,
            workload=Workload(task_types=task_types, tasks=[]),
            scheduler=create_scheduler("MECT"),
        )
        result = sim.run()
        assert result.summary.total_tasks == 0
        assert sim.is_finished

    def test_next_event_time(self, eet_3x2, make_workload):
        sim = build_sim(eet_3x2, make_workload, [(0, 1.0, 100.0)])
        assert sim.step()[0] == 1.0


class TestRun:
    def test_run_completes_all_feasible_tasks(self, eet_3x2, make_workload):
        sim = build_sim(
            eet_3x2,
            make_workload,
            [(0, 0.0, 100.0), (1, 1.0, 100.0), (2, 2.0, 100.0)],
        )
        result = sim.run()
        assert result.summary.completed == 3
        assert result.summary.completion_rate == 1.0

    def test_result_before_finish_raises(self, eet_3x2, make_workload):
        sim = build_sim(eet_3x2, make_workload, [(0, 0.0, 100.0)])
        with pytest.raises(SimulationStateError):
            sim.result()

    def test_result_after_run(self, eet_3x2, make_workload):
        sim = build_sim(eet_3x2, make_workload, [(0, 0.0, 100.0)])
        result = sim.run()
        assert sim.result() is result

    def test_events_processed_counted(self, eet_3x2, make_workload):
        sim = build_sim(eet_3x2, make_workload, [(0, 0.0, 100.0)])
        result = sim.run()
        # 1 arrival + 1 completion + 1 deadline (fires post-completion, no-op)
        assert result.events_processed == 3


class TestObservers:
    def test_observer_sees_every_event(self, eet_3x2, make_workload):
        seen = []
        sim = build_sim(
            eet_3x2,
            make_workload,
            [(0, 0.0, 100.0)],
            observers=[lambda s, e: seen.append(e[3])],
        )
        sim.run()
        assert EventType.TASK_ARRIVAL in seen
        assert EventType.TASK_COMPLETION in seen


class TestConfigurationGuards:
    def test_batch_with_bounded_queue_allowed(self, eet_3x2, make_workload):
        sim = build_sim(
            eet_3x2,
            make_workload,
            [(0, 0.0, 100.0)],
            scheduler="MM",
            queue_capacity=2,
        )
        result = sim.run()
        assert result.summary.completed == 1

    def test_immediate_lifts_built_capacity_to_unbounded(
        self, eet_3x2, make_workload
    ):
        sim = build_sim(
            eet_3x2, make_workload, [(0, 0.0, 100.0)], queue_capacity=3
        )
        assert all(m.queue_capacity == UNBOUNDED for m in sim.cluster)

    def test_batch_keeps_built_capacity(self, eet_3x2, make_workload):
        sim = build_sim(
            eet_3x2, make_workload, [(0, 0.0, 100.0)], scheduler="MM",
            queue_capacity=3,
        )
        assert all(m.queue_capacity == 3 for m in sim.cluster)

    def test_workload_must_match_eet(self, eet_3x2):
        from repro.core.errors import IncompatibleWorkloadError
        from repro.tasks.task import Task
        from repro.tasks.task_type import TaskType
        from repro.tasks.workload import Workload

        alien = TaskType("ALIEN", 0)
        workload = Workload(
            task_types=[alien],
            tasks=[Task(id=0, task_type=alien, arrival_time=0.0, deadline=1.0)],
        )
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1})
        with pytest.raises(IncompatibleWorkloadError):
            Simulator(
                cluster=cluster,
                workload=workload,
                scheduler=create_scheduler("MECT"),
            )


class TestCountsView:
    def test_counts_track_outcomes(self, eet_3x2, make_workload):
        sim = build_sim(
            eet_3x2, make_workload, [(0, 0.0, 100.0), (1, 0.0, 100.0)]
        )
        sim.run()
        counts = sim.counts()
        assert counts == {"completed": 2, "cancelled": 0, "missed": 0}

    def test_remaining_arrivals_decreases(self, eet_3x2, make_workload):
        sim = build_sim(
            eet_3x2, make_workload, [(0, 0.0, 100.0), (1, 50.0, 200.0)]
        )
        assert sim.remaining_arrivals() == 2
        sim.step()
        assert sim.remaining_arrivals() == 1
