"""The scheduling hot path's shortcuts equal their reference forms.

1. ``RandomSplitGateway`` bisects a cached CDF instead of calling
   ``rng.choice(n, p=…)``. It must pick the same cluster on every draw and
   leave the generator in the same state as the NumPy call would.
2. A batch policy that sets ``singleton_argmin`` has a one-task arrival
   placed by ``Cluster.argmin_open_completion`` instead of a pass (the
   query :func:`one_task_query` names, which the arrival shortcut asks).
   It must pick the same assignment as the matrix pass on any cluster
   state: saturated queues, down machines, exact ties, every machine
   closed, and clusters past the scalar-loop size limit.
3. ELARE and FELARE set ``singleton_energy``; their query is
   ``Cluster.argmin_open_energy``. Same contract as (2), over tight and
   loose deadlines and per-task-type power overrides (0 W included).
4. ``Cluster.energy_rows`` gathers from a table built once per run; it is
   bit-equal to the per-task ``watts * eet_vector`` rows it replaces.
5. FCFS and OLB pick with ``Cluster.argmin_ready``; it equals
   ``np.argmin(ready_times(now))``, down machines included, and
   ``Cluster.ready_list`` equals ``ready_times(now)`` bit for bit. MECT's
   ``Cluster.argmin_completion`` and the EET-aware gateway's
   ``Cluster.min_completion_time`` equal ``completion_times(task, now)``'s
   ``argmin()`` and ``min()`` on the same clusters.
6. MM, MSD, ELARE and FELARE define a ``select_pair_scalar`` twin and
   answer a multi-task pass of at most 128 cells (tasks x machines) with
   the list-based ``_scalar_pass``. It must return the same (task, machine)
   pairs in the same order as the matrix pass, over exact ties, passed and
   +inf deadlines, and tied and unequal FELARE success rates. A subclass
   that overrides ``select_pair`` alone keeps the matrix pass, for
   one-task passes as for multi-task ones.
7. The scalar branches of ``argmin_completion``, ``min_completion_time``
   and ``argmin_open_completion`` scan machine types cheapest EET first
   and stop early. They must return what the full scan in machine order
   returns (kept below as the reference), over machine types interleaved
   in machine order, equal EETs across types, +inf EETs, closed queues,
   runs finishing past ``2 * now`` and ``now = 0``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError, EETError
from repro.core.event_queue import EventQueue
from repro.machines import UNBOUNDED
from repro.machines.cluster import Cluster
from repro.machines.eet import EETMatrix
from repro.machines.machine import Machine
from repro.machines.machine_type import MachineType
from repro.machines.power import PowerProfile
from repro.net import InterClusterTopology, WanManager
from repro.scheduling.base import (
    _LIST_PASS_CELLS,
    BatchScheduler,
    SchedulingMode,
    argmin_2d,
    has_list_twin,
    one_task_query,
)
from repro.scheduling.batch.minmin import MinMinScheduler
from repro.scheduling.context import LiveTypeStats, SchedulingContext
from repro.scheduling.federation import GatewayContext, create_gateway
from repro.scheduling.registry import (
    available_schedulers,
    create_scheduler,
    scheduler_class,
)
from repro.tasks.task import Task
from repro.tasks.task_type import TaskType

OPTED_IN = ["MM", "MSD", "MMU", "MAXMIN", "SUFFERAGE"]
ENERGY_OPTED_IN = ["ELARE", "FELARE"]
SCALAR_OPTED_IN = ["MM", "MSD", "ELARE", "FELARE"]


# -- gateway: CDF bisect == rng.choice ----------------------------------------------


class _Shard:
    def __init__(self, index, weight):
        self.index = index
        self.name = f"c{index}"
        self.weight = weight


weight_lists = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    ),
    min_size=1,
    max_size=32,
).filter(lambda w: sum(w) > 0)


@settings(max_examples=60, deadline=None)
@given(
    weights=weight_lists,
    explicit=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_split_draws_equal_rng_choice(weights, explicit, seed):
    n = len(weights)
    if explicit:
        shards = [_Shard(i, 1.0) for i in range(n)]
        gateway = create_gateway("RANDOM_SPLIT", weights=list(weights))
    else:
        shards = [_Shard(i, w) for i, w in enumerate(weights)]
        gateway = create_gateway("RANDOM_SPLIT")
    topology = InterClusterTopology()
    ctx = GatewayContext(
        now=0.0,
        task=None,
        origin=0,
        shards=shards,
        topology=topology,
        rng=np.random.default_rng(seed),
        wan=WanManager(topology, EventQueue(), [s.name for s in shards]),
    )
    twin = np.random.default_rng(seed)
    w = np.asarray(weights, dtype=float)
    p = w / w.sum()
    got = [gateway.choose_cluster(ctx) for _ in range(1000)]
    want = [int(twin.choice(n, p=p)) for _ in range(1000)]
    assert got == want
    assert ctx.rng.bit_generator.state == twin.bit_generator.state


# -- batch: one-task query == matrix pass -------------------------------------------

TYPES = [TaskType("A", 0), TaskType("B", 1)]
STATES = ("idle", "running", "queued", "backlog", "full", "down")


@st.composite
def clusters(draw):
    """A cluster in a random mid-run state, plus the time to plan at."""
    n_types = draw(st.integers(1, 4))
    # Small integers make exact ties between machines common; 0.1 and 0.3
    # make float sums depend on their order of operations.
    values = draw(
        st.lists(
            st.sampled_from([1.0, 2.0, 3.0, 0.5, 7.25, 0.1, 0.3]),
            min_size=2 * n_types,
            max_size=2 * n_types,
        )
    )
    eet = EETMatrix(
        np.array(values).reshape(2, n_types),
        TYPES,
        [f"M{j}" for j in range(n_types)],
    )
    # Occasionally past Cluster._SCALAR_ARGMIN_LIMIT: the vector branch.
    per_type = draw(st.sampled_from([1, 1, 2, 3, 17]))
    capacity = draw(st.sampled_from([1, 2, UNBOUNDED]))
    # Integer and float draws, with per-type overrides down to 0 W: exact
    # energy ties and an int-to-float conversion in the energy table.
    watts = st.sampled_from([0, 0.0, 6, 9.5, 95.0, 250.0, 1e-3])
    power = {
        f"M{j}": PowerProfile(
            busy_watts=draw(watts),
            busy_watts_by_type=draw(
                st.dictionaries(st.sampled_from(["A", "B"]), watts)
            ),
        )
        for j in range(n_types)
    }
    cluster = Cluster.build(
        eet, [per_type] * n_types, queue_capacity=capacity, power_profiles=power
    )
    ids = iter(range(1000, 100000))
    for machine in cluster.machines:
        state = draw(st.sampled_from(STATES))
        if state == "down":
            machine.fail(0.0)
            continue
        if state in ("running", "queued", "backlog"):
            machine.enqueue(_task(next(ids), draw), 0.0)
        if state in ("running", "backlog"):
            runtime = draw(st.sampled_from([0.5, 2.0, 4.0, 0.7]))
            machine.start_next(0.0, runtime=runtime)
        if state == "backlog":  # a queued task behind the running one
            machine.enqueue(_task(next(ids), draw), 0.0)
        if state == "full":
            for _ in range(capacity if capacity != UNBOUNDED else 3):
                machine.enqueue(_task(next(ids), draw), 0.0)
    now = draw(st.sampled_from([0.0, 1.0, 3.0, 0.3]))
    return cluster, now


def _task(task_id, draw):
    task = Task(
        id=task_id,
        task_type=TYPES[draw(st.integers(0, 1))],
        arrival_time=0.0,
        deadline=50.0,
    )
    task.enqueue_batch()
    return task


def _ctx(cluster, now, tasks, type_stats=None):
    return SchedulingContext(
        now=now,
        pending=tasks,
        cluster=cluster,
        type_stats=type_stats or LiveTypeStats(),
        rng=np.random.default_rng(0),
    )


def _pairs(assignments):
    return [(a.task.id, a.machine.id) for a in assignments]


def _one_task_pick(policy, cluster, now, task):
    """What the arrival shortcut's ``Cluster`` query picks, as pairs."""
    j = getattr(cluster, one_task_query(scheduler_class(policy)))(task, now)
    return [] if j is None else [(task.id, cluster.machines[j].id)]


@settings(max_examples=150, deadline=None)
@given(
    policy=st.sampled_from(OPTED_IN),
    system=clusters(),
    task_type=st.integers(0, 1),
    deadline=st.sampled_from([0.5, 3.0, 50.0]),
)
def test_singleton_pass_equals_matrix_pass(policy, system, task_type, deadline):
    cluster, now = system
    task = Task(
        id=0, task_type=TYPES[task_type], arrival_time=0.0, deadline=deadline
    )
    task.enqueue_batch()
    scheduler = create_scheduler(policy)
    reference = scheduler._matrix_pass([task], _ctx(cluster, now, [task]))
    assert _one_task_pick(policy, cluster, now, task) == _pairs(reference)
    assert _pairs(scheduler.schedule(_ctx(cluster, now, [task]))) == _pairs(reference)


@pytest.mark.parametrize("policy", OPTED_IN)
def test_all_saturated_maps_nothing(policy):
    eet = EETMatrix(np.array([[1.0, 2.0]]), TYPES[:1], ["M0", "M1"])
    cluster = Cluster.build(eet, [1, 1], queue_capacity=1)
    ids = iter(range(1, 10))
    for machine in cluster.machines:
        filler = Task(id=next(ids), task_type=TYPES[0], arrival_time=0.0,
                      deadline=9.0)
        filler.enqueue_batch()
        machine.enqueue(filler, 0.0)
    task = Task(id=0, task_type=TYPES[0], arrival_time=0.0, deadline=9.0)
    task.enqueue_batch()
    assert create_scheduler(policy).schedule(_ctx(cluster, 0.0, [task])) == []


@settings(max_examples=200, deadline=None)
@given(
    policy=st.sampled_from(ENERGY_OPTED_IN),
    system=clusters(),
    task_type=st.integers(0, 1),
    deadline=st.sampled_from([0.5, 1.0, 2.5, 3.0, 4.0, 9.0, 50.0, np.inf]),
)
def test_energy_singleton_pass_equals_matrix_pass(
    policy, system, task_type, deadline
):
    cluster, now = system
    task = Task(
        id=0, task_type=TYPES[task_type], arrival_time=0.0, deadline=deadline
    )
    task.enqueue_batch()
    scheduler = create_scheduler(policy)
    reference = scheduler._matrix_pass([task], _ctx(cluster, now, [task]))
    assert _one_task_pick(policy, cluster, now, task) == _pairs(reference)
    assert _pairs(scheduler.schedule(_ctx(cluster, now, [task]))) == _pairs(reference)


@pytest.mark.parametrize("policy", ENERGY_OPTED_IN)
@pytest.mark.parametrize("deadline,machine", [(3.0, 0), (2.5, 1), (0.5, 1)])
def test_deadline_met_exactly_is_feasible(policy, deadline, machine):
    # M0 completes at 3.0 for 0 J; M1 at 1.0 for 9 J. A deadline of exactly
    # 3.0 keeps M0 feasible; nothing feasible falls back to the fastest.
    eet = EETMatrix(np.array([[3.0, 1.0]]), TYPES[:1], ["M0", "M1"])
    power = {"M1": PowerProfile(busy_watts=9.0)}
    cluster = Cluster.build(eet, [1, 1], queue_capacity=1, power_profiles=power)
    task = Task(id=0, task_type=TYPES[0], arrival_time=0.0, deadline=deadline)
    task.enqueue_batch()
    scheduler = create_scheduler(policy)
    reference = scheduler._matrix_pass([task], _ctx(cluster, 0.0, [task]))
    assert _one_task_pick(policy, cluster, 0.0, task) == _pairs(reference) == [(0, machine)]
    assert _pairs(scheduler.schedule(_ctx(cluster, 0.0, [task]))) == _pairs(reference)


# -- batch: scalar multi-task pass == matrix pass ------------------------------------

# Exact ties with completion times, deadlines already passed at now = 1.0 or
# 3.0, and +inf.
DEADLINES = [0.5, 1.0, 2.5, 3.0, 4.0, 9.0, 50.0, np.inf]


@settings(max_examples=400, deadline=None)
@given(
    policy=st.sampled_from(SCALAR_OPTED_IN),
    system=clusters(),
    specs=st.lists(
        st.tuples(st.integers(0, 1), st.sampled_from(DEADLINES)),
        min_size=2,
        max_size=8,
    ),
    # Outcomes per type: unequal rates, and ties (1/2 == 2/4, or no record).
    records=st.lists(
        st.tuples(st.sampled_from(["A", "B"]), st.booleans()), max_size=6
    ),
)
def test_scalar_pass_equals_matrix_pass(policy, system, specs, records):
    cluster, now = system
    tasks = []
    for i, (kind, deadline) in enumerate(specs):
        task = Task(
            id=i, task_type=TYPES[kind], arrival_time=0.0, deadline=deadline
        )
        task.enqueue_batch()
        tasks.append(task)
    stats = LiveTypeStats()
    for name, on_time in records:
        stats.record(name, on_time)
    ctx = _ctx(cluster, now, tasks, stats)
    scheduler = create_scheduler(policy)
    reference = _pairs(scheduler._matrix_pass(list(tasks), ctx))
    scalar = scheduler._scalar_pass(list(tasks), ctx)
    if len(tasks) * len(cluster) > _LIST_PASS_CELLS:
        assert scalar is None
    else:
        assert _pairs(scalar) == reference
    assert _pairs(scheduler.schedule(ctx)) == reference


def test_non_opted_policies_reach_the_matrix_pass():
    eet = EETMatrix(np.array([[1.0, 2.0]]), TYPES[:1], ["M0", "M1"])
    cluster = Cluster.build(eet, [1, 1], queue_capacity=2)
    tasks = []
    for i in range(2):
        task = Task(id=i, task_type=TYPES[0], arrival_time=0.0, deadline=9.0)
        task.enqueue_batch()
        tasks.append(task)
    seen = []

    class Plugged(BatchScheduler):
        name = "PLUGGED"

        def select_pair(self, tasks, completion, alive, ctx):
            seen.append(type(completion))
            return argmin_2d(completion)

    assignments = Plugged().schedule(_ctx(cluster, 0.0, tasks))
    assert _pairs(assignments) == [(0, 0), (1, 0)]
    assert seen and set(seen) == {np.ndarray}


def test_overriding_select_pair_alone_keeps_the_matrix_pass():
    eet = EETMatrix(np.array([[1.0, 2.0]]), TYPES[:1], ["M0", "M1"])
    cluster = Cluster.build(eet, [1, 1], queue_capacity=2)
    tasks = []
    for i in range(3):
        task = Task(id=i, task_type=TYPES[0], arrival_time=0.0, deadline=9.0)
        task.enqueue_batch()
        tasks.append(task)

    class LastFirst(MinMinScheduler):
        """Min-Min's list twin is inherited; it must not answer for this."""

        name = "LAST_FIRST"

        def select_pair(self, tasks, completion, alive, ctx):
            rows = np.flatnonzero(np.isfinite(completion.min(axis=1)))
            if len(rows) == 0:
                return None
            i = int(rows[-1])
            return i, int(np.argmin(completion[i]))

    assignments = LastFirst().schedule(_ctx(cluster, 0.0, tasks))
    assert _pairs(assignments) == [(2, 0), (1, 0), (0, 1)]
    assert _pairs(MinMinScheduler().schedule(_ctx(cluster, 0.0, tasks))) == [
        (0, 0), (1, 0), (2, 1),
    ]


def test_overriding_select_pair_alone_keeps_the_one_task_matrix_pass():
    eet = EETMatrix(np.array([[1.0, 2.0, 3.0]]), TYPES[:1], ["M0", "M1", "M2"])
    cluster = Cluster.build(eet, [1, 1, 1], queue_capacity=2)
    task = Task(id=0, task_type=TYPES[0], arrival_time=0.0, deadline=9.0)
    task.enqueue_batch()

    class LastMachine(MinMinScheduler):
        """Min-Min's one-task argmin is inherited; it must not answer for this."""

        name = "LAST_MACHINE"

        def select_pair(self, tasks, completion, alive, ctx):
            cells = np.argwhere(np.isfinite(completion))
            if len(cells) == 0:
                return None
            i, j = cells[-1]
            return int(i), int(j)

    assert one_task_query(LastMachine) is None
    assert _pairs(LastMachine().schedule(_ctx(cluster, 0.0, [task]))) == [(0, 2)]
    assert _pairs(MinMinScheduler().schedule(_ctx(cluster, 0.0, [task]))) == [
        (0, 0),
    ]


def _reference_energy(tasks, cluster):
    """The per-task row loop ``Cluster.energy_table`` replaced."""
    machines = cluster.machines
    energy = np.empty((len(tasks), len(machines)))
    for i, task in enumerate(tasks):
        eet = cluster.eet_vector(task)
        watts = np.array(
            [
                m.machine_type.power.active_watts(task.task_type.name)
                for m in machines
            ]
        )
        energy[i] = watts * eet
    return energy


@settings(max_examples=60, deadline=None)
@given(
    system=clusters(),
    kinds=st.lists(st.integers(0, 1), min_size=1, max_size=6),
)
def test_energy_rows_equal_per_task_rows(system, kinds):
    cluster, _ = system
    tasks = [
        Task(id=i, task_type=TYPES[k], arrival_time=0.0, deadline=9.0)
        for i, k in enumerate(kinds)
    ]
    got = cluster.energy_rows(tasks)
    want = _reference_energy(tasks, cluster)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not cluster.energy_table.flags.writeable


@settings(max_examples=150, deadline=None)
@given(system=clusters(), task_type=st.integers(0, 1))
def test_argmin_ready_equals_ready_times_argmin(system, task_type):
    cluster, now = system
    assert cluster.argmin_ready(now) == int(np.argmin(cluster.ready_times(now)))
    # The scalar pass's ready times are the vector form's, bit for bit.
    ready = np.array(cluster.ready_list(now))
    assert ready.tobytes() == cluster.ready_times(now).tobytes()
    # MECT's pick and the EET-aware gateway's bid take the same split.
    task = Task(id=0, task_type=TYPES[task_type], arrival_time=0.0, deadline=9.0)
    completion = cluster.completion_times(task, now)
    assert cluster.argmin_completion(task, now) == int(completion.argmin())
    assert cluster.min_completion_time(task, now) == float(completion.min())


def test_non_finite_energy_is_refused():
    eet = EETMatrix(np.array([[1.0, 2.0]]), TYPES[:1], ["M0", "M1"])
    power = {"M1": PowerProfile(busy_watts=float("inf"))}
    cluster = Cluster.build(eet, [1, 1], queue_capacity=2, power_profiles=power)
    task = Task(id=0, task_type=TYPES[0], arrival_time=0.0, deadline=9.0)
    task.enqueue_batch()
    with pytest.raises(ConfigurationError, match="must be finite"):
        create_scheduler("ELARE").schedule(_ctx(cluster, 0.0, [task]))


@pytest.mark.parametrize("policy", ENERGY_OPTED_IN)
@pytest.mark.parametrize("per_type", [1, 40])  # scalar and vector branch
def test_unknown_task_type_fails_alike_on_energy_paths(policy, per_type):
    eet = EETMatrix(np.array([[1.0, 2.0]]), TYPES[:1], ["M0", "M1"])
    cluster = Cluster.build(eet, [per_type, per_type], queue_capacity=2)
    task = Task(id=0, task_type=TYPES[1], arrival_time=0.0, deadline=9.0)
    task.enqueue_batch()
    scheduler = create_scheduler(policy)
    with pytest.raises(EETError):
        scheduler.schedule(_ctx(cluster, 0.0, [task]))
    with pytest.raises(EETError):
        scheduler._matrix_pass([task], _ctx(cluster, 0.0, [task]))
    with pytest.raises(EETError):
        cluster.energy_rows([task])


@pytest.mark.parametrize("policy", SCALAR_OPTED_IN)
@pytest.mark.parametrize("n_tasks", [1, 3])
def test_unknown_task_type_fails_like_the_matrix_pass(policy, n_tasks):
    eet = EETMatrix(np.array([[1.0, 2.0]]), TYPES[:1], ["M0", "M1"])
    cluster = Cluster.build(eet, [1, 1], queue_capacity=2)
    # The cluster knows type A only; the first task is of type B.
    tasks = []
    for i in range(n_tasks):
        kind = TYPES[1] if i == 0 else TYPES[0]
        task = Task(id=i, task_type=kind, arrival_time=0.0, deadline=9.0)
        task.enqueue_batch()
        tasks.append(task)
    scheduler = create_scheduler(policy)
    with pytest.raises(EETError):
        scheduler.schedule(_ctx(cluster, 0.0, tasks))
    with pytest.raises(EETError):
        scheduler._matrix_pass(list(tasks), _ctx(cluster, 0.0, tasks))


def test_only_row_argmin_policies_opt_in():
    for name in OPTED_IN:
        assert scheduler_class(name).singleton_argmin is True
    # Energy among deadline-feasible machines, not the completion argmin.
    for name in ENERGY_OPTED_IN:
        assert scheduler_class(name).singleton_argmin is False
        assert scheduler_class(name).singleton_energy is True
    for name in OPTED_IN:
        assert scheduler_class(name).singleton_energy is False

    class Plugged(BatchScheduler):
        name = "PLUGGED"

        def select_pair(self, tasks, completion, alive, ctx):
            return argmin_2d(completion)

    assert Plugged.singleton_argmin is False
    assert Plugged.singleton_energy is False
    assert one_task_query(Plugged) is None
    assert has_list_twin(Plugged) is False

    # The stock flags take the one-task shortcut.
    for name in OPTED_IN:
        assert one_task_query(scheduler_class(name)) == "argmin_open_completion"
    for name in ENERGY_OPTED_IN:
        assert one_task_query(scheduler_class(name)) == "argmin_open_energy"

    # Exactly these batch policies map multi-task passes on lists.
    batch = available_schedulers(SchedulingMode.BATCH)
    scalar = [name for name in batch if has_list_twin(scheduler_class(name))]
    assert sorted(scalar) == sorted(SCALAR_OPTED_IN)

    # A subclass's twin counts only next to (or below) its select_pair.
    class NewPick(MinMinScheduler):
        def select_pair(self, tasks, completion, alive, ctx):
            return argmin_2d(completion)

    class NewPickAndTwin(NewPick):
        def select_pair_scalar(self, tasks, completion, alive, ctx):
            return None

    class Renamed(MinMinScheduler):
        name = "RENAMED"

    assert has_list_twin(NewPick) is False
    assert has_list_twin(NewPickAndTwin) is True
    assert has_list_twin(Renamed) is True

    # So does a one-task flag.
    class NewPickAndFlag(NewPick):
        singleton_argmin = True

    assert one_task_query(NewPick) is None
    assert one_task_query(NewPickAndFlag) == "argmin_open_completion"
    assert one_task_query(Renamed) == "argmin_open_completion"


# -- the pruned completion scans == the full scan ----------------------------------


def _full_scan(cluster, task, now, *, open_only=False):
    """The scalar loops the pruned scans replaced: every machine, in order.

    Returns ``(argmin_completion, min_completion_time,
    argmin_open_completion)`` with each loop's own order of additions.
    """
    state = cluster.state
    eet_row = cluster.eet_vector(task).tolist()
    finish = state.finish_at.tolist()
    queued = state.queued_work.tolist()
    best, best_j = float("inf"), 0
    open_best, open_j = float("inf"), None
    for j, f in enumerate(finish):
        remaining = f - now
        if remaining < 0.0:
            remaining = 0.0
        v = now + remaining + queued[j] + eet_row[j]
        if v < best:
            best, best_j = v, j
        if state.slots[j] <= 0:
            continue
        v = remaining + now + queued[j] + eet_row[j]
        if v < open_best:
            open_best, open_j = v, j
    return best_j, best, open_j


@st.composite
def scan_clusters(draw):
    """A fully-up cluster of at most 64 machines whose types interleave."""
    n_types = draw(st.integers(1, 5))
    # Few distinct values: equal EETs across machine types are common.
    values = np.array(
        draw(
            st.lists(
                st.sampled_from([0.5, 1.0, 2.0, 0.1, 0.3]),
                min_size=2 * n_types,
                max_size=2 * n_types,
            )
        )
    ).reshape(2, n_types)
    names = [f"M{j}" for j in range(n_types)]
    eet = EETMatrix(values, TYPES, names)
    # EETMatrix refuses +inf; the scan must stay exact on it, so the test
    # writes some of type B's cells behind the check (fillers are type A).
    inf_cols = draw(st.sets(st.integers(0, n_types - 1)))
    if inf_cols:
        matrix = values.copy()
        matrix[1, sorted(inf_cols)] = np.inf
        matrix.setflags(write=False)
        eet._matrix = matrix
    capacity = draw(st.sampled_from([1, 2, UNBOUNDED]))
    cols = draw(st.lists(st.integers(0, n_types - 1), min_size=1, max_size=12))
    mtypes = [MachineType(name, j) for j, name in enumerate(names)]
    cluster = Cluster(
        [
            Machine(i, mtypes[col], eet, queue_capacity=capacity)
            for i, col in enumerate(cols)
        ],
        eet,
    )
    ids = iter(range(1000, 100000))

    def filler():
        task = Task(id=next(ids), task_type=TYPES[0], arrival_time=0.0,
                    deadline=50.0)
        task.enqueue_batch()
        return task

    for machine in cluster.machines:
        state = draw(st.sampled_from(("idle", "running", "backlog", "full")))
        if state in ("running", "backlog"):
            machine.enqueue(filler(), 0.0)
            # 9.0 finishes past 2 * now for every drawn now.
            runtime = draw(st.sampled_from([0.5, 1.0, 2.0, 0.7, 9.0]))
            machine.start_next(0.0, runtime=runtime)
        if state == "backlog":
            machine.enqueue(filler(), 0.0)
        if state == "full" and capacity != UNBOUNDED:
            for _ in range(capacity):
                machine.enqueue(filler(), 0.0)
    now = draw(st.sampled_from([0.0, 0.0, 0.3, 1.0, 3.0]))
    return cluster, now


@settings(max_examples=400, deadline=None)
@given(system=scan_clusters(), task_type=st.integers(0, 1))
def test_pruned_scans_equal_the_full_scan(system, task_type):
    cluster, now = system
    task = Task(id=0, task_type=TYPES[task_type], arrival_time=0.0, deadline=9.0)
    argmin, minimum, open_argmin = _full_scan(cluster, task, now)
    assert cluster.argmin_completion(task, now) == argmin
    assert cluster.min_completion_time(task, now) == minimum
    assert cluster.argmin_open_completion(task, now) == open_argmin
