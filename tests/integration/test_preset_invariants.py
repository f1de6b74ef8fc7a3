"""Whole-run invariants of the larger presets, checked untimed.

These are correctness checks on presets too big or too varied for the
exact goldens to pin field by field:

* each run simulates at least a preset-specific number of tasks;
* a federated preset offloads some, but not all, of its tasks;
* the tree root's WAN attempts are exactly the offloaded tasks;
* on a tree preset, each node's live ``in_system`` and ``alive`` counters
  (what the gateway reads) equal a recount over its leaves at the end;
* every task ends terminal without deadline drops too, and a run that
  loses a task raises;
* every WAN link channel of a federated preset ends drained;
* on every preset, each collector's live counters and per-type on-time
  rates equal a recount of its recorded tasks, each machine's free queue
  slots equal ``queue_capacity - len(queue)`` while up and 0.0 while
  down, each machine's ``queued_work`` is never negative, exactly 0.0 on
  an empty queue and the EET sum of its queue up to float residue
  otherwise, every machine and WAN link books non-negative energy, and no
  queueing link is busy for longer than the run;
* building and running a preset leaves its ``Scenario`` unchanged;
* stepped with an observer, every preset pops each event with the
  priority of its type, in strictly increasing ``(time, priority, seq)``
  order, and ends with the summary and event count of ``run()``.

The smaller federated presets are pinned exactly in
``test_golden_metrics.py``, which implies the same floors there: task
totals (``test_summary_exact``), WAN deliveries on ``fed_congested``
(``TestGoldenFedCongested.test_link_usage_exact``), migrations on
``fed_rebalance`` (``TestGoldenFedRebalance.test_migration_stats_exact``
and ``test_migration_conservation``) and ``total_tasks == 420`` on
``trace_replay`` (``TestGoldenTraceReplay.test_summary_exact``).
"""

import dataclasses
import math
from collections import Counter

import pytest

from repro.core.config import Scenario
from repro.core.errors import SimulationStateError
from repro.core.events import EVENT_PRIORITY
from repro.machines.eet_generation import generate_eet_cvb
from repro.net.wan import _EPS_MB, TransferPhase
from repro.scenarios import available_scenarios, build_scenario
from repro.tasks.task import TaskStatus


def _cvb_mect(machines_per_type):
    """A medium-intensity MECT run on a 4x4 CVB matrix."""
    eet = generate_eet_cvb(
        4, 4, mean_task=12.0, v_task=0.4, v_machine=0.5, seed=3
    )
    return Scenario(
        eet=eet,
        machine_counts={n: machines_per_type for n in eet.machine_type_names},
        scheduler="MECT",
        generator={"duration": 400.0, "intensity": "medium"},
        seed=9,
        name="throughput",
    )


#: Unregistered scenarios the ``run`` fixture builds by key.
CUSTOM = {"cvb_mect_4": lambda: _cvb_mect(1), "cvb_mect_16": lambda: _cvb_mect(4)}


#: Every registered preset that builds a federation.
FEDERATED = [
    key
    for key in available_scenarios()
    if build_scenario(key).federation is not None
]


@pytest.fixture(scope="module")
def ran():
    """Each scenario's (simulator, result), run once per module and freed after it.

    ``ran.before[key]`` holds the scenario with its attributes and document
    as they were before the build.
    """
    runs = {}

    def _ran(key):
        if key not in runs:
            scenario = CUSTOM[key]() if key in CUSTOM else build_scenario(key)
            _ran.before[key] = (scenario, dict(vars(scenario)), scenario.to_dict())
            simulator = scenario.build_simulator()
            runs[key] = (simulator, simulator.run())
        return runs[key]

    _ran.before = {}
    return _ran


@pytest.fixture(scope="module")
def run(ran):
    """Each scenario's result (see ``ran``)."""
    return lambda key: ran(key)[1]


@pytest.mark.parametrize(
    "key,floor",
    [
        ("cvb_mect_4", 0),
        ("cvb_mect_16", 0),
        ("fed_heavytail", 2000),
        ("scale_campus", 5000),
        ("scale_federation", 20000),
        ("hier_3region", 500),
        ("hier_deep", 300),
    ],
)
def test_total_tasks_above_floor(run, key, floor):
    assert run(key).summary.total_tasks > floor


@pytest.mark.parametrize(
    "preset",
    [
        "fed_heavytail",
        "fed_congested",
        "fed_adaptive",
        "diurnal_wan",
        "scale_federation",
        "hier_3region",
        "hier_deep",
    ],
)
def test_federation_offloads_some_but_not_all(run, preset):
    assert 0.0 < run(preset).offload_rate < 1.0


@pytest.mark.parametrize("preset", ["hier_3region", "hier_deep"])
def test_tree_root_wan_attempts_are_the_offloads(run, preset):
    result = run(preset)
    assert result.tree.root.stats["wan_attempted"] == result.offloaded


@pytest.mark.parametrize("preset", ["hier_3region", "hier_deep"])
def test_tree_counters_match_a_leaf_recount(ran, preset):
    simulator, _ = ran(preset)
    view = simulator._ctx.hierarchy
    for node, leaves in enumerate(view.tree.leaves_under):
        shards = [simulator.shards[leaf] for leaf in leaves]
        # A drained run leaves nothing in any subtree.
        assert view.in_system[node] == sum(s.in_system for s in shards) == 0
        assert view.alive[node] == sum(
            len(s.cluster.machines) - s.cluster.state.n_down for s in shards
        )


@pytest.mark.parametrize("preset", FEDERATED)
def test_wan_channels_drain(ran, preset):
    simulator, _ = ran(preset)
    for channel in simulator.wan._channels.values():
        assert channel._serving is None, channel.label
        assert not channel._active, channel.label
        # Cancelled transfers are removed from a FIFO lazily, so only they
        # may remain queued.
        assert all(
            t.phase is TransferPhase.CANCELLED for t in channel._fifo
        ), channel.label
        assert channel._tick is None, channel.label
        assert channel._next_finish is None, channel.label
        assert abs(channel._queued_mb) < _EPS_MB, channel.label


def _shards(simulator):
    """The run's single-cluster engines: a federation's shards, or itself."""
    return getattr(simulator, "shards", None) or [simulator]


@pytest.mark.parametrize("preset", available_scenarios())
def test_collector_counters_match_a_recount(ran, preset):
    simulator, _ = ran(preset)
    for shard in _shards(simulator):
        collector = shard.collector
        tasks = collector.tasks()
        statuses = Counter(t.status for t in tasks)
        assert collector.counts() == {
            "completed": statuses[TaskStatus.COMPLETED],
            "cancelled": statuses[TaskStatus.CANCELLED],
            "missed": statuses[TaskStatus.MISSED],
        }
        finished: Counter[str] = Counter()
        on_time: Counter[str] = Counter()
        for t in tasks:
            finished[t.task_type.name] += 1
            on_time[t.task_type.name] += t.on_time
        for name, count in finished.items():
            assert collector.type_stats.success_rate(name) == (
                on_time[name] / count
            ), name


@pytest.mark.parametrize("preset", available_scenarios())
def test_free_slots_match_a_recount(ran, preset):
    simulator, _ = ran(preset)
    for shard in _shards(simulator):
        slots = shard.cluster.state.slots
        for i, machine in enumerate(shard.cluster):
            recount = float(machine.queue_capacity - len(machine.queue))
            assert slots[i] == (recount if machine.up else 0.0), machine.name


@pytest.mark.parametrize("preset", available_scenarios())
def test_queued_work_matches_a_recount(ran, preset):
    simulator, _ = ran(preset)
    for shard in _shards(simulator):
        queued_work = shard.cluster.state.queued_work
        for i, machine in enumerate(shard.cluster):
            # The completion scans prune on queued_work >= 0, so an emptied
            # queue must hold exactly 0.0, not the running sum's residue.
            assert queued_work[i] >= 0.0, machine.name
            if not machine.queue:
                assert queued_work[i] == 0.0, machine.name
            recount = sum(machine.eet_for(t) for t in machine.queue)
            assert math.isclose(queued_work[i], recount, abs_tol=1e-9), machine.name


@pytest.mark.parametrize("preset", available_scenarios())
def test_a_run_leaves_the_scenario_unchanged(ran, preset):
    ran(preset)
    scenario, attributes, document = ran.before[preset]
    assert vars(scenario) == attributes
    assert scenario.to_dict() == document


@pytest.mark.parametrize("preset", available_scenarios())
def test_energy_books_are_non_negative(ran, preset):
    simulator, result = ran(preset)
    for shard in _shards(simulator):
        for machine in shard.cluster:
            assert machine.energy.idle_energy >= 0.0, machine.name
            assert machine.energy.busy_energy >= 0.0, machine.name
    for label, usage in getattr(result, "wan_links", {}).items():
        assert usage.transfer_energy >= 0.0, label
        assert usage.active_energy >= 0.0, label
        assert usage.idle_energy >= 0.0, label


@pytest.mark.parametrize("preset", FEDERATED)
def test_queueing_links_are_not_busy_past_the_run(ran, preset):
    # A "none" link's busy time is the sum of its (overlapping) transfers'
    # serialisation times, so only fifo/ps links are bounded by the run.
    simulator, result = ran(preset)
    for channel in simulator.wan._channels.values():
        if channel.link.contention != "none":
            assert channel.busy_time <= result.end_time, channel.label


@pytest.mark.parametrize("preset", available_scenarios())
def test_stepped_events_pop_in_key_order(ran, preset):
    # The hot push sites build their event tuples in place: each must carry
    # its type's priority, and the heap must pop them in key order.
    simulator = build_scenario(preset).build_simulator()
    keys = []

    def observe(sim, event):
        assert event[1] == EVENT_PRIORITY[event[3]], event
        keys.append(event[:3])

    simulator.observers.append(observe)
    result = simulator.run()
    assert len(keys) == result.events_processed > 0
    assert all(a < b for a, b in zip(keys, keys[1:]))
    reference = ran(preset)[1]
    assert result.summary == reference.summary
    assert result.events_processed == reference.events_processed


def _without_drops(preset):
    scenario = build_scenario(preset)
    return dataclasses.replace(scenario, drop_on_deadline=False).build_simulator()


@pytest.mark.parametrize("preset", ["satellite_imaging", "fed_rebalance"])
def test_tasks_are_conserved_without_deadline_drops(preset):
    simulator = _without_drops(preset)
    summary = simulator.run().summary
    assert summary.total_tasks == len(simulator.workload)
    assert summary.completed + summary.cancelled + summary.missed == len(
        simulator.workload
    )


@pytest.mark.parametrize("preset", ["satellite_imaging", "geo_3site"])
def test_a_lost_task_raises_without_deadline_drops(preset):
    simulator = _without_drops(preset)
    # The first arrival feeds the rest of the workload; cancelling it
    # leaves every task unrecorded. (A preset with a rebalancer would
    # tick forever, waiting for the lost tasks.)
    simulator.events.cancel(simulator.events._heap[0])
    with pytest.raises(SimulationStateError, match="conservation violated"):
        simulator.run()
