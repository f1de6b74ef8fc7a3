"""Batch policies: mapping order, capacity respect, energy/fairness logic.

System under test (eet_3x2 fixture):

           M1    M2
    T1    4.0  10.0
    T2    9.0   3.0
    T3    5.0   6.0
"""

import math
import warnings

import numpy as np
import pytest

from repro.machines.cluster import Cluster
from repro.machines.eet import EETMatrix
from repro.machines.power import PowerProfile
from repro.scheduling.context import LiveTypeStats, SchedulingContext
from repro.scheduling.registry import create_scheduler
from repro.tasks.task import Task
from repro.tasks.task_type import TaskType


def pending(task_types, specs):
    """specs: list of (type_idx, deadline) -> tasks with sequential ids."""
    tasks = []
    for i, (ti, dl) in enumerate(specs):
        t = Task(
            id=i, task_type=task_types[ti], arrival_time=0.0, deadline=dl
        )
        t.enqueue_batch()
        tasks.append(t)
    return tasks


def batch_ctx(cluster, tasks, now=0.0, type_stats=None):
    return SchedulingContext(
        now=now,
        pending=tasks,
        cluster=cluster,
        type_stats=type_stats or LiveTypeStats(),
        rng=np.random.default_rng(0),
    )


class TestMinMin:
    def test_maps_globally_smallest_first(self, eet_3x2, task_types):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1}, queue_capacity=10)
        tasks = pending(task_types, [(0, 99.0), (1, 99.0), (2, 99.0)])
        assignments = create_scheduler("MM").schedule(
            batch_ctx(cluster, tasks)
        )
        # T2 on M2 = 3 (global min), then T1 on M1 = 4, then T3:
        # M1 ready 4 -> 4+5=9 vs M2 ready 3 -> 3+6=9: tie -> machine id order.
        assert [(a.task.id, a.machine.id) for a in assignments] == [
            (1, 1),
            (0, 0),
            (2, 0),
        ]

    def test_virtual_ready_times_respected(self, eet_3x2, task_types):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1}, queue_capacity=10)
        tasks = pending(task_types, [(0, 99.0), (0, 99.0), (0, 99.0)])
        assignments = create_scheduler("MM").schedule(
            batch_ctx(cluster, tasks)
        )
        # T1 on M1 = 4; second T1 on M1 = 8 (< 10 on M2); third: M1 12 vs
        # M2 10 -> M2.
        machines = [a.machine.id for a in assignments]
        assert machines == [0, 0, 1]

    def test_respects_queue_capacity(self, eet_3x2, task_types):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1}, queue_capacity=1)
        tasks = pending(task_types, [(0, 99.0)] * 5)
        assignments = create_scheduler("MM").schedule(
            batch_ctx(cluster, tasks)
        )
        assert len(assignments) == 2  # one slot per machine
        per_machine = {}
        for a in assignments:
            per_machine[a.machine.id] = per_machine.get(a.machine.id, 0) + 1
        assert all(v <= 1 for v in per_machine.values())

    def test_empty_pending(self, eet_3x2, task_types):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1}, queue_capacity=3)
        assert create_scheduler("MM").schedule(batch_ctx(cluster, [])) == []

    def test_matches_reference_min_min(self, task_types):
        """Cross-check the mapping loop against a naive reference."""
        rng = np.random.default_rng(42)
        from repro.machines.eet import EETMatrix

        values = rng.uniform(1.0, 20.0, size=(3, 3))
        eet = EETMatrix(values, task_types, ["A", "B", "C"])
        cluster = Cluster.build(
            eet, {n: 1 for n in eet.machine_type_names}, queue_capacity=99
        )
        tasks = pending(task_types, [(i % 3, 999.0) for i in range(7)])
        got = create_scheduler("MM").schedule(batch_ctx(cluster, tasks))

        # Reference implementation.
        ready = np.zeros(3)
        remaining = list(range(len(tasks)))
        expected = []
        while remaining:
            best = None
            for i in remaining:
                row = values[tasks[i].task_type.index]
                completions = ready + row
                j = int(np.argmin(completions))
                cand = (completions[j], i, j)
                if best is None or cand[0] < best[0] or (
                    cand[0] == best[0] and (cand[1], cand[2]) < (best[1], best[2])
                ):
                    best = cand
            _, i, j = best
            expected.append((i, j))
            ready[j] += values[tasks[i].task_type.index][j]
            remaining.remove(i)

        assert [(a.task.id, a.machine.id) for a in got] == expected


class TestMaxMin:
    def test_longest_task_first(self, eet_3x2, task_types):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1}, queue_capacity=10)
        tasks = pending(task_types, [(0, 99.0), (1, 99.0), (2, 99.0)])
        assignments = create_scheduler("MAXMIN").schedule(
            batch_ctx(cluster, tasks)
        )
        # Best completions: T1=4 (M1), T2=3 (M2), T3=5 (M1): Max-Min maps T3
        # first.
        assert assignments[0].task.id == 2
        assert assignments[0].machine.id == 0


class TestSufferage:
    def test_highest_sufferage_first(self, eet_3x2, task_types):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1}, queue_capacity=10)
        tasks = pending(task_types, [(0, 99.0), (1, 99.0), (2, 99.0)])
        assignments = create_scheduler("SUFFERAGE").schedule(
            batch_ctx(cluster, tasks)
        )
        # Sufferage: T1 = 10-4 = 6, T2 = 9-3 = 6, T3 = 6-5 = 1.
        # Tie between T1, T2 -> argmax picks T1 first (row order).
        assert assignments[0].task.id == 0
        assert assignments[0].machine.id == 0

    def test_single_machine_degenerates_to_min_min_order(self, task_types):
        from repro.machines.eet import EETMatrix

        eet = EETMatrix(
            np.array([[4.0], [9.0], [5.0]]), task_types, ["M"]
        )
        cluster = Cluster.build(eet, {"M": 1}, queue_capacity=10)
        tasks = pending(task_types, [(0, 99.0), (1, 99.0), (2, 99.0)])
        assignments = create_scheduler("SUFFERAGE").schedule(
            batch_ctx(cluster, tasks)
        )
        assert len(assignments) == 3


class TestMMU:
    def test_least_slack_first(self, eet_3x2, task_types):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1}, queue_capacity=10)
        # T1 best completion 4, deadline 20 -> slack 16
        # T2 best completion 3, deadline 5  -> slack 2   <- most urgent
        # T3 best completion 5, deadline 30 -> slack 25
        tasks = pending(task_types, [(0, 20.0), (1, 5.0), (2, 30.0)])
        assignments = create_scheduler("MMU").schedule(
            batch_ctx(cluster, tasks)
        )
        assert assignments[0].task.id == 1
        assert assignments[0].machine.id == 1

    def test_doomed_task_goes_first(self, eet_3x2, task_types):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1}, queue_capacity=10)
        # T2 cannot meet deadline 1.0 anywhere (min completion 3): negative
        # slack = -2 sorts before any positive slack.
        tasks = pending(task_types, [(0, 50.0), (1, 1.0)])
        assignments = create_scheduler("MMU").schedule(
            batch_ctx(cluster, tasks)
        )
        assert assignments[0].task.id == 1


class TestMSD:
    def test_soonest_deadline_first(self, eet_3x2, task_types):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1}, queue_capacity=10)
        tasks = pending(task_types, [(0, 50.0), (1, 8.0), (2, 30.0)])
        assignments = create_scheduler("MSD").schedule(
            batch_ctx(cluster, tasks)
        )
        assert [a.task.id for a in assignments] == [1, 2, 0]

    def test_each_on_min_completion_machine(self, eet_3x2, task_types):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1}, queue_capacity=10)
        tasks = pending(task_types, [(1, 8.0)])
        (a,) = create_scheduler("MSD").schedule(batch_ctx(cluster, tasks))
        assert a.machine.id == 1  # T2: 3 on M2 < 9 on M1


def powered(eet_3x2, idle=(1.0, 1.0), busy=(100.0, 10.0), capacity=10):
    return Cluster.build(
        eet_3x2,
        {"M1": 1, "M2": 1},
        power_profiles={
            "M1": PowerProfile(idle_watts=idle[0], busy_watts=busy[0]),
            "M2": PowerProfile(idle_watts=idle[1], busy_watts=busy[1]),
        },
        queue_capacity=capacity,
    )


class TestELARE:
    def test_prefers_cheapest_feasible_energy(self, eet_3x2, task_types):
        cluster = powered(eet_3x2)
        # T1: M1 4s×100W = 400 J, M2 10s×10W = 100 J; both feasible (dl 50)
        tasks = pending(task_types, [(0, 50.0)])
        (a,) = create_scheduler("ELARE").schedule(batch_ctx(cluster, tasks))
        assert a.machine.id == 1

    def test_deadline_filters_cheap_option(self, eet_3x2, task_types):
        cluster = powered(eet_3x2)
        # Deadline 5: only M1 (completion 4) is feasible despite its wattage.
        tasks = pending(task_types, [(0, 5.0)])
        (a,) = create_scheduler("ELARE").schedule(batch_ctx(cluster, tasks))
        assert a.machine.id == 0

    def test_fallback_to_min_completion_when_infeasible(
        self, eet_3x2, task_types
    ):
        cluster = powered(eet_3x2)
        # Deadline 1: nothing feasible -> Min-Min fallback -> M1 (4 < 10).
        tasks = pending(task_types, [(0, 1.0)])
        (a,) = create_scheduler("ELARE").schedule(batch_ctx(cluster, tasks))
        assert a.machine.id == 0


class TestFELARE:
    def test_starved_type_served_first(self, eet_3x2, task_types):
        cluster = powered(eet_3x2)
        stats = LiveTypeStats()
        # T1 has been failing; T2 always succeeds.
        for _ in range(5):
            stats.record("T1", False)
            stats.record("T2", True)
        tasks = pending(task_types, [(1, 50.0), (0, 50.0)])
        assignments = create_scheduler("FELARE").schedule(
            batch_ctx(cluster, tasks, type_stats=stats)
        )
        assert assignments[0].task.task_type.name == "T1"

    def test_energy_choice_within_selected_task(self, eet_3x2, task_types):
        cluster = powered(eet_3x2)
        tasks = pending(task_types, [(0, 50.0)])
        (a,) = create_scheduler("FELARE").schedule(batch_ctx(cluster, tasks))
        assert a.machine.id == 1  # cheapest feasible, like ELARE

    def test_fallback_when_nothing_feasible(self, eet_3x2, task_types):
        cluster = powered(eet_3x2)
        tasks = pending(task_types, [(0, 1.0), (1, 1.0)])
        assignments = create_scheduler("FELARE").schedule(
            batch_ctx(cluster, tasks)
        )
        assert len(assignments) == 2  # falls back and still drains


class TestCapacityAcrossPolicies:
    @pytest.mark.parametrize(
        "policy", ["MM", "MAXMIN", "SUFFERAGE", "MMU", "MSD", "ELARE", "FELARE"]
    )
    def test_never_exceeds_slots(self, policy, eet_3x2, task_types):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1}, queue_capacity=2)
        tasks = pending(task_types, [(i % 3, 99.0) for i in range(10)])
        assignments = create_scheduler(policy).schedule(
            batch_ctx(cluster, tasks)
        )
        per_machine = {}
        for a in assignments:
            per_machine[a.machine.id] = per_machine.get(a.machine.id, 0) + 1
        assert all(v <= 2 for v in per_machine.values())
        assert len(assignments) <= 4

    @pytest.mark.parametrize(
        "policy", ["MM", "MAXMIN", "SUFFERAGE", "MMU", "MSD", "ELARE", "FELARE"]
    )
    def test_each_task_mapped_at_most_once(self, policy, eet_3x2, task_types):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1}, queue_capacity=5)
        tasks = pending(task_types, [(i % 3, 99.0) for i in range(8)])
        assignments = create_scheduler(policy).schedule(
            batch_ctx(cluster, tasks)
        )
        ids = [a.task.id for a in assignments]
        assert len(ids) == len(set(ids))


class TestInfiniteDeadlines:
    """Once one +inf-deadline task is mapped, every feasible key is +inf."""

    @pytest.mark.parametrize(
        "policy", ["MM", "MAXMIN", "SUFFERAGE", "MMU", "MSD", "ELARE", "FELARE"]
    )
    def test_maps_each_task_once_without_warnings(self, policy):
        kind = TaskType("A", 0)
        eet = EETMatrix(np.array([[1.0, 2.0]]), [kind], ["M0", "M1"])
        cluster = Cluster.build(eet, [1, 1], queue_capacity=2)
        tasks = pending([kind], [(0, math.inf), (0, math.inf)])
        scheduler = create_scheduler(policy)
        ctx = batch_ctx(cluster, tasks)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = scheduler.schedule(ctx)
            reference = scheduler._matrix_pass(list(tasks), ctx)
        want = [(0, 0), (1, 0)]
        assert [(a.task.id, a.machine.id) for a in fast] == want
        assert [(a.task.id, a.machine.id) for a in reference] == want
