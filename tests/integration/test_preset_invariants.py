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
  order, and ends with the summary and event count of ``run()``;
* each preset's popped event stream, seqs left out, matches a pinned
  sha256, and so do each federated preset's WAN books (per-link usage,
  total WAN time and the offload energy split), so a WAN or engine
  refactor that reorders events or re-associates an accumulator fails.

The smaller federated presets are pinned exactly in
``test_golden_metrics.py``, which implies the same floors there: task
totals (``test_summary_exact``), WAN deliveries on ``fed_congested``
(``TestGoldenFedCongested.test_link_usage_exact``), migrations on
``fed_rebalance`` (``TestGoldenFedRebalance.test_migration_stats_exact``
and ``test_migration_conservation``) and ``total_tasks == 420`` on
``trace_replay`` (``TestGoldenTraceReplay.test_summary_exact``).
"""

import dataclasses
import hashlib
import json
import math
from collections import Counter

import pytest

from repro.core.config import Scenario
from repro.core.errors import SimulationStateError
from repro.core.events import EVENT_PRIORITY
from repro.machines.eet_generation import generate_eet_cvb
from repro.machines.machine import Machine
from repro.net.wan import _EPS_MB, LinkChannel, TransferPhase
from repro.scenarios import available_scenarios, build_scenario
from repro.tasks.task import Task, TaskStatus


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


def _payload_key(payload):
    """What identifies an event's payload, seqs and object ids left out."""
    if payload is None:  # a rebalancer tick
        return None
    if isinstance(payload, Task):
        return payload.id
    if isinstance(payload, Machine):  # a failure or repair
        return payload.name
    if isinstance(payload, LinkChannel):  # a serialisation or traffic tick
        return payload.label
    if (
        type(payload) is tuple
        and len(payload) == 2
        and isinstance(payload[0], Machine)
        and isinstance(payload[1], Task)
    ):  # a completion or in-cluster delivery
        return [payload[0].name, payload[1].id]
    raise AssertionError(f"unknown event payload type {type(payload).__name__}")


#: preset -> sha256 of its popped ``(time, priority, type, cluster,
#: payload key)`` stream, one JSON line per event.
EVENT_STREAMS = {
    "classroom_homogeneous": "20e0890a2c94f0aa93ffa319a1b0389dd1179dd61f42f47769fa7ea725793d5c",
    "diurnal_wan": "8761870c374befdb846527b167c8ff9678caece42f74780d266ea8ea2ec720f3",
    "edge_ai": "c09711907a6824b3d282f85621e128428c5338a021cf4fff73841510b1073d01",
    "edge_cloud": "d72cbaf35c0ca75d4f07cda7dd1b4dc33f8cb79131d37b560d8316faba35f737",
    "fed_adaptive": "6e49c11af143fc3a81238eb75d405686a31d71f244ad84ee9f6ff873b2ee19bd",
    "fed_congested": "d25f19cc38e3f24bcfd3af4c74328eea415437b65ff267a4cc41757631d8ac01",
    "fed_heavytail": "36f96582cd7fed0ba747fbb271b9ec0f94bccce18e92aa5ca13b00128d94b5a1",
    "fed_rebalance": "5bcb5edfdcddc08c745e2e74b6b74a405952288e2c16bb1a120875303b47891f",
    "geo_3site": "3ca373f538fe9f3d727cca8b851e21343a08e68ede9e00427227f1f14cadf76f",
    "hier_3region": "875407924dc6f9129a0346dce3d2aae6c92894784f8ee212d08c85e39bf51b27",
    "hier_deep": "356c5f8cb6e8a62e3e8ce6bf4b6f30f7a02e10e6e61afafab22c14ebeba09416",
    "satellite_imaging": "72316603b921f219fb2cfdfa033c8d9c7303e0a1e517bdf20e1bc5290769edb9",
    "scale_campus": "a9c3435f658f2d966c06ead7b54928dca2ceea66113d133da2db72fd8d84a697",
    "scale_datacenter": "1a1669d3ba4d6b26357298af487f8c422069a235bbd7af179136dd491821a2a5",
    "scale_federation": "345f0ea9ff951cba92692388a349b29f8ea299cb690b592f5440497c74b20665",
    "scale_heavytail": "0b8fa1bff766c6b5d2d62d2e28f1218410e84b25cc659a21c55c6d94d6c46f39",
    "trace_replay": "f5623a947ac6b6905985dcd0fef0799ae7483c8bd7e756705856cea2dbfc1aca",
}


@pytest.mark.parametrize("preset", available_scenarios())
def test_stepped_events_pop_in_key_order(ran, preset):
    # The hot push sites build their event tuples in place: each must carry
    # its type's priority, and the heap must pop them in key order.
    simulator = build_scenario(preset).build_simulator()
    keys = []
    stream = hashlib.sha256()

    def observe(sim, event):
        assert event[1] == EVENT_PRIORITY[event[3]], event
        keys.append(event[:3])
        time, priority, _, etype, payload, cluster = event
        line = [time, priority, etype.value, cluster, _payload_key(payload)]
        stream.update(json.dumps(line).encode() + b"\n")

    simulator.observers.append(observe)
    result = simulator.run()
    assert len(keys) == result.events_processed > 0
    assert all(a < b for a, b in zip(keys, keys[1:]))
    reference = ran(preset)[1]
    assert result.summary == reference.summary
    assert result.events_processed == reference.events_processed
    assert stream.hexdigest() == EVENT_STREAMS[preset]


#: federated preset -> sha256 of its WAN books: every link's usage, the
#: total WAN time and the offload energy split, floats at full precision.
WAN_BOOKS = {
    "diurnal_wan": "2c0cac2823ec242078352b71c50cd2c8b6066a4dbb1a69a9cf15a9b4aaa83db9",
    "edge_cloud": "e0bb05e3b96e0c4288736a1c6daf73b9a8fad75d9dd222018d3cd9d9941476bf",
    "fed_adaptive": "23f5718a6ca68cd1d4e9e21ad4d782d00f18149181bfe36bceafcd2df3a485dc",
    "fed_congested": "a1978d292cf3d0ca0950046cdd828d26fca9594fa8d6411ae1cb69e7b0441f25",
    "fed_heavytail": "7d5cd95b25225fbf38579760011a53e6192f5b3e61e39dd60a17e2e96840776a",
    "fed_rebalance": "e330da4f2b961c402d8b261e64b229e1864763880dd9758fd9fb48dc83ce6ebc",
    "geo_3site": "8b14ea9352daa283fcad1bd92a01b941b94b996d8b701d25e35138fcfdf1a75a",
    "hier_3region": "f63d9bc16c0d1a872a5443d446981bf25616718f0149d454e1504bf9e8dab17c",
    "hier_deep": "8219d7ad4b9d1acf638468cce41412ed05b06ed746b3b8b7f7442acbd455b1e8",
    "scale_federation": "6b027ad31ac92c8ed0a914eab05b026dcd1e226b48a200f70aef388cded17981",
}


def _wan_books(result):
    books = {
        "wan_links": {
            label: usage.as_dict() for label, usage in result.wan_links.items()
        },
        "wan_time_total": result.wan_time_total,
        "energy_split": result.energy_split.as_dict(),
    }
    payload = json.dumps(books, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("preset", FEDERATED)
def test_wan_books_match_their_pins(run, preset):
    assert _wan_books(run(preset)) == WAN_BOOKS[preset]


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
