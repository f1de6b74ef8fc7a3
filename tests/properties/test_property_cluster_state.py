"""``ClusterState`` is the one store of each machine's planning scalars.

Every machine transition writes the fields it changes at its own row, once.
A random sequence of enqueue / start / finish / drop / fail / repair steps on
a small cluster must leave every field equal to the value recomputed from
the machines themselves after every step:

- ``finish_at``: the running task's ``start_time + execution_time``, 0.0
  while idle (exact);
- ``slots``: ``queue_capacity - len(queue)`` while up, 0.0 while down
  (exact);
- ``up`` / ``n_down``: the test's own record of failed machines (exact);
- ``queued_work``: Σ EET of the queued tasks. The store sums incrementally,
  in transition order, which is the pinned behaviour, so the fresh sum is
  compared with ``math.isclose``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SimulationStateError
from repro.machines import UNBOUNDED
from repro.machines.cluster import Cluster
from repro.machines.eet import EETMatrix
from repro.machines.machine import Machine
from repro.machines.machine_type import MachineType
from repro.tasks.task import Task
from repro.tasks.task_type import TaskType

TYPES = [TaskType("A", 0), TaskType("B", 1)]
# Non-dyadic EETs so the incremental queued-work sum really rounds.
EET = EETMatrix(np.array([[0.1, 2.0], [0.7, 0.3]]), TYPES, ["M0", "M1"])

steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["enqueue", "start", "finish", "drop_queued", "drop_running",
             "fail", "repair"]
        ),
        st.integers(0, 2),  # machine
        st.integers(0, 3),  # task type / queue position / runtime choice
        st.sampled_from([0.0, 0.25, 1.0]),  # clock advance before the step
    ),
    min_size=10,
    max_size=60,
)


def check(cluster: Cluster, down: set[int]) -> None:
    state = cluster.state
    assert state.n_down == len(down)
    for i, m in enumerate(cluster.machines):
        assert state.up[i] is (i not in down)
        assert m.up is (i not in down)
        if m.running is None:
            assert state.finish_at[i] == 0.0
            assert m.run_finishes_at is None
        else:
            task = m.running
            assert state.finish_at[i] == task.start_time + task.execution_time
            assert m.run_finishes_at == state.finish_at[i]
        recount = float(m.queue_capacity - len(m.queue))
        assert state.slots[i] == (recount if i not in down else 0.0)
        assert isinstance(state.slots[i], float)
        queued = sum(m.eet_for(t) for t in m.queue)
        assert math.isclose(state.queued_work[i], queued, abs_tol=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.sampled_from([1, 2, UNBOUNDED]),
    unbound=st.booleans(),
    script=steps,
)
def test_every_transition_writes_the_one_store(capacity, unbound, script):
    cluster = Cluster.build(EET, [2, 1], queue_capacity=capacity)
    if unbound:
        cluster.unbound_queues()
    down: set[int] = set()
    ids = iter(range(10_000))
    now = 0.0
    check(cluster, down)
    for op, j, k, advance in script:
        now += advance
        m = cluster.machines[j]
        if op == "enqueue":
            task = Task(next(ids), TYPES[k % 2], arrival_time=now, deadline=1e9)
            task.enqueue_batch()
            if m.can_accept(task):
                m.enqueue(task, now)
            else:  # down, or the queue is full
                with pytest.raises(SimulationStateError):
                    m.enqueue(task, now)
        elif op == "start":
            m.start_next(now, runtime=(None, 0.0, 0.5, 3.3)[k])
        elif op == "finish" and m.running is not None:
            m.finish_running(now)
        elif op == "drop_queued" and len(m.queue):
            queued = list(m.queue)
            assert m.drop_queued(queued[k % len(queued)])
        elif op == "drop_running" and m.running is not None:
            m.drop_running(now)
        elif op == "fail" and j not in down:
            m.fail(now)
            down.add(j)
        elif op == "repair" and j in down:
            m.repair(now)
            down.discard(j)
        check(cluster, down)


def test_cluster_takes_over_a_standalone_machines_row():
    m0, m1 = MachineType("M0", 0), MachineType("M1", 1)
    machines = [
        Machine(i, t, EET, queue_capacity=2) for i, t in enumerate([m0, m1, m0])
    ]
    for i, m in enumerate(machines[:2]):
        task = Task(i, TYPES[i], arrival_time=0.0, deadline=1e9)
        task.enqueue_batch()
        m.enqueue(task, 0.0)
    machines[0].start_next(0.0, runtime=1.5)
    machines[2].fail(0.0)
    cluster = Cluster(machines, EET)
    state = cluster.state
    assert state.finish_at.tolist() == [1.5, 0.0, 0.0]
    assert state.queued_work.tolist() == [0.0, 0.3, 0.0]
    assert state.slots == [2.0, 1.0, 0.0]
    assert state.up == [True, True, False] and state.n_down == 1
    check(cluster, {2})

