"""Whole-run invariants of the larger presets, checked untimed.

These are correctness checks on presets too big or too varied for the
exact goldens to pin field by field:

* each run simulates at least a preset-specific number of tasks;
* a federated preset offloads some, but not all, of its tasks;
* the tree root's WAN attempts are exactly the offloaded tasks;
* every task ends terminal without deadline drops too, and a run that
  loses a task raises;
* every WAN link channel of a federated preset ends drained.

The smaller federated presets are pinned exactly in
``test_golden_metrics.py``, which implies the same floors there: task
totals (``test_summary_exact``), WAN deliveries on ``fed_congested``
(``TestGoldenFedCongested.test_link_usage_exact``), migrations on
``fed_rebalance`` (``TestGoldenFedRebalance.test_migration_stats_exact``
and ``test_migration_conservation``) and ``total_tasks == 420`` on
``trace_replay`` (``TestGoldenTraceReplay.test_summary_exact``).
"""

import dataclasses

import pytest

from repro.core.config import Scenario
from repro.core.errors import SimulationStateError
from repro.machines.eet_generation import generate_eet_cvb
from repro.net.wan import _EPS_MB, TransferPhase
from repro.scenarios import available_scenarios, build_scenario


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
    """Each scenario's (simulator, result), run once per module and freed after it."""
    runs = {}

    def _ran(key):
        if key not in runs:
            scenario = CUSTOM[key]() if key in CUSTOM else build_scenario(key)
            simulator = scenario.build_simulator()
            runs[key] = (simulator, simulator.run())
        return runs[key]

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
    simulator.events.cancel(simulator.events.peek())
    with pytest.raises(SimulationStateError, match="conservation violated"):
        simulator.run()
