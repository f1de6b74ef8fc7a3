"""Property-based tests of the simulation engine's global invariants.

The big one is the conservation law: under *any* workload, machine
population, and policy, every task ends in exactly one of
COMPLETED / CANCELLED / MISSED, and derived metrics stay within bounds.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.simulator import Simulator
from repro.machines.cluster import Cluster
from repro.machines.eet_generation import generate_eet_cvb
from repro.scheduling.base import SchedulingMode
from repro.scheduling.registry import create_scheduler
from repro.tasks.task import Task, TaskStatus
from repro.tasks.workload import Workload

POLICIES = [
    "FCFS", "MECT", "MEET", "OLB", "RR", "RANDOM", "KPB", "SA",
    "MM", "MAXMIN", "SUFFERAGE", "MMU", "MSD", "ELARE", "FELARE",
]


@st.composite
def random_scenario(draw):
    n_types = draw(st.integers(min_value=1, max_value=3))
    n_machines = draw(st.integers(min_value=1, max_value=4))
    eet_seed = draw(st.integers(min_value=0, max_value=10_000))
    eet = generate_eet_cvb(
        n_types, n_machines, mean_task=5.0, v_task=0.5, v_machine=0.5,
        seed=eet_seed,
    )
    n_tasks = draw(st.integers(min_value=0, max_value=25))
    tasks = []
    for i in range(n_tasks):
        arrival = draw(
            st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
        )
        slack = draw(
            st.floats(min_value=0.1, max_value=40.0, allow_nan=False)
        )
        tasks.append((i, draw(st.integers(0, n_types - 1)), arrival, slack))
    policy = draw(st.sampled_from(POLICIES))
    capacity = draw(st.sampled_from([1, 2, 5, float("inf")]))
    sim_seed = draw(st.integers(min_value=0, max_value=10_000))
    return eet, tasks, policy, capacity, sim_seed


def build_and_run(eet, task_specs, policy, capacity, sim_seed):
    task_types = eet.task_types
    tasks = [
        Task(
            id=i,
            task_type=task_types[ti],
            arrival_time=arr,
            deadline=arr + slack,
        )
        for i, ti, arr, slack in task_specs
    ]
    workload = Workload(task_types=task_types, tasks=tasks)
    scheduler = create_scheduler(policy)
    if scheduler.mode is SchedulingMode.IMMEDIATE:
        capacity = float("inf")
    cluster = Cluster.build(
        eet, {n: 1 for n in eet.machine_type_names}, queue_capacity=capacity
    )
    sim = Simulator(
        cluster=cluster,
        workload=workload,
        scheduler=scheduler,
        seed=sim_seed,
    )
    return sim.run(), workload, sim


@given(random_scenario())
@settings(max_examples=80, deadline=None)
def test_conservation_law(scenario):
    result, workload, _ = build_and_run(*scenario)
    s = result.summary
    assert s.completed + s.cancelled + s.missed == s.total_tasks == len(workload)
    assert all(t.status.is_terminal for t in workload)


@given(random_scenario())
@settings(max_examples=80, deadline=None)
def test_completed_tasks_are_on_time(scenario):
    """Drop-on-deadline mode: a completed task always met its deadline."""
    result, workload, _ = build_and_run(*scenario)
    for t in workload:
        if t.status is TaskStatus.COMPLETED:
            assert t.completion_time <= t.deadline
            assert t.on_time


@given(random_scenario())
@settings(max_examples=60, deadline=None)
def test_metric_bounds(scenario):
    result, _, _ = build_and_run(*scenario)
    s = result.summary
    assert 0.0 <= s.completion_rate <= 1.0
    assert 0.0 <= s.cancellation_rate <= 1.0
    assert 0.0 <= s.miss_rate <= 1.0
    rate_sum = s.completion_rate + s.cancellation_rate + s.miss_rate
    assert abs(rate_sum - (1.0 if s.total_tasks else 0.0)) < 1e-9
    assert s.makespan >= 0.0
    assert s.total_energy >= 0.0
    assert 0.0 <= s.mean_utilization <= 1.0
    assert 0.0 < s.fairness_index <= 1.0 or s.total_tasks == 0


@given(random_scenario())
@settings(max_examples=60, deadline=None)
def test_causality_of_task_timestamps(scenario):
    result, workload, _ = build_and_run(*scenario)
    for t in workload:
        if t.assigned_time is not None:
            assert t.assigned_time >= t.arrival_time
        if t.start_time is not None:
            assert t.start_time >= t.assigned_time
        if t.completion_time is not None:
            assert t.completion_time >= t.start_time
        if t.missed_time is not None:
            # a miss can only happen at the deadline instant
            assert t.missed_time == t.deadline


@given(random_scenario())
@settings(max_examples=40, deadline=None)
def test_machine_counters_match_task_outcomes(scenario):
    result, workload, sim = build_and_run(*scenario)
    completed = sum(m.completed_count for m in sim.cluster)
    assert completed == result.summary.completed
    # MISSED tasks that had a machine are exactly the machines' missed counts
    missed_on_machines = sum(
        1 for t in workload if t.status is TaskStatus.MISSED
    )
    assert sum(m.missed_count for m in sim.cluster) == missed_on_machines


@given(random_scenario())
@settings(max_examples=40, deadline=None)
def test_seed_determinism(scenario):
    result_a, workload_a, _ = build_and_run(*scenario)
    result_b, workload_b, _ = build_and_run(*scenario)
    assert result_a.task_records == result_b.task_records
    assert result_a.summary.as_dict() == result_b.summary.as_dict()


@given(random_scenario())
@settings(max_examples=30, deadline=None)
def test_energy_conservation(scenario):
    """Per-machine idle + busy time equals metered wall time."""
    result, _, sim = build_and_run(*scenario)
    for m in sim.cluster:
        total = m.energy.idle_time + m.energy.busy_time
        assert abs(total - sim.now) < 1e-6 or sim.now == 0.0
