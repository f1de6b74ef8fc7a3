"""Property-based tests: engine invariants survive failure injection."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.simulator import Simulator
from repro.machines.cluster import Cluster
from repro.machines.eet_generation import generate_eet_cvb
from repro.machines.failures import FailureModel
from repro.scheduling.base import SchedulingMode
from repro.scheduling.registry import create_scheduler
from repro.tasks.task import Task, TaskStatus
from repro.tasks.workload import Workload

POLICIES = ["FCFS", "MECT", "MM", "MSD", "FELARE"]


@st.composite
def failing_scenario(draw):
    n_types = draw(st.integers(min_value=1, max_value=2))
    n_machines = draw(st.integers(min_value=1, max_value=3))
    eet = generate_eet_cvb(
        n_types, n_machines, mean_task=4.0, v_task=0.4, v_machine=0.4,
        seed=draw(st.integers(0, 5_000)),
    )
    n_tasks = draw(st.integers(min_value=1, max_value=15))
    specs = [
        (
            i,
            draw(st.integers(0, n_types - 1)),
            draw(st.floats(min_value=0.0, max_value=30.0, allow_nan=False)),
            draw(st.floats(min_value=1.0, max_value=50.0, allow_nan=False)),
        )
        for i in range(n_tasks)
    ]
    mtbf = draw(st.floats(min_value=2.0, max_value=50.0, allow_nan=False))
    mttr = draw(st.floats(min_value=0.5, max_value=10.0, allow_nan=False))
    policy = draw(st.sampled_from(POLICIES))
    seed = draw(st.integers(0, 5_000))
    return eet, specs, mtbf, mttr, policy, seed


def run(eet, specs, mtbf, mttr, policy, seed):
    tasks = [
        Task(
            id=i,
            task_type=eet.task_types[ti],
            arrival_time=arr,
            deadline=arr + slack,
        )
        for i, ti, arr, slack in specs
    ]
    workload = Workload(task_types=eet.task_types, tasks=tasks)
    scheduler = create_scheduler(policy)
    capacity = 2 if scheduler.mode is SchedulingMode.BATCH else float("inf")
    sim = Simulator(
        cluster=Cluster.build(
            eet, {n: 1 for n in eet.machine_type_names}, queue_capacity=capacity
        ),
        workload=workload,
        scheduler=scheduler,
        failure_model=FailureModel(mtbf=mtbf, mttr=mttr),
        seed=seed,
    )
    return sim.run(), workload, sim


@given(failing_scenario())
@settings(max_examples=60, deadline=None)
def test_conservation_under_failures(scenario):
    result, workload, _ = run(*scenario)
    s = result.summary
    assert s.completed + s.cancelled + s.missed == s.total_tasks == len(workload)
    assert all(t.status.is_terminal for t in workload)


@given(failing_scenario())
@settings(max_examples=40, deadline=None)
def test_completed_still_on_time(scenario):
    result, workload, _ = run(*scenario)
    for t in workload:
        if t.status is TaskStatus.COMPLETED:
            assert t.completion_time <= t.deadline


@given(failing_scenario())
@settings(max_examples=40, deadline=None)
def test_wall_time_partition_includes_downtime(scenario):
    """idle + busy + off == simulated wall time, per machine."""
    result, _, sim = run(*scenario)
    for m in sim.cluster:
        total = m.energy.idle_time + m.energy.busy_time + m.energy._off_time
        assert abs(total - sim.now) < 1e-6 or sim.now == 0.0


@given(failing_scenario())
@settings(max_examples=30, deadline=None)
def test_deterministic_under_failures(scenario):
    a, _, _ = run(*scenario)
    b, _, _ = run(*scenario)
    assert a.task_records == b.task_records


@given(failing_scenario())
@settings(max_examples=30, deadline=None)
def test_simulation_terminates(scenario):
    result, workload, _ = run(*scenario)
    # The failure process stops renewing once all tasks are terminal, so the
    # event count stays within a sane multiple of the workload size.
    assert result.events_processed < 10_000
