"""Correctness checks of the engine-throughput timing tiers, run untimed.

``benchmarks/test_bench_engine_throughput.py`` asserts four invariants
inside its timed events/s tiers. They are correctness checks, not timings,
so they live in ``tests/`` too, on the same presets with the same
arguments. Two are here:

* a federated preset offloads some, but not all, of its tasks;
* the tree root's WAN attempts are exactly the offloaded tasks.

The other two were already pinned in ``test_golden_metrics.py``:
migration ``attempted == delivered + cancelled_in_flight`` on
``fed_rebalance`` (``TestGoldenFedRebalance.test_migration_conservation``)
and ``total_tasks == 420`` on ``trace_replay``
(``TestGoldenTraceReplay.test_summary_exact``).
"""

import pytest

from repro.scenarios import build_scenario


@pytest.fixture(scope="module")
def run():
    """Each preset's result, run once per module and freed after it."""
    results = {}

    def _run(preset):
        if preset not in results:
            results[preset] = build_scenario(preset).run()
        return results[preset]

    return _run


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

