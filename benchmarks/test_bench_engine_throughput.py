"""E-P1 — engine performance: events/second and scaling.

Not a paper figure, but the performance envelope that makes the educational
tool interactive: the DES core must stay far above real-time for classroom
system sizes. Benchmarks the end-to-end engine on a medium scenario, on a
larger machine population, under the batch mapping loop, and on a scale-tier
preset (hundreds of machines).

Each benchmark attaches ``events`` / ``events_per_sec`` to pytest-benchmark's
``extra_info``; ``benchmarks/check_regression.py`` compares those numbers
against the committed baseline (``results/engine_throughput_baseline.json``)
and fails CI on >30% regression.
"""

import pytest

from bench_recording import record_result_json, record_result_line
from repro.core.config import Scenario
from repro.machines.eet_generation import generate_eet_cvb
from repro.scenarios import build_scenario


def _record(build_dir, key, line, **payload):
    """Record one benchmark under *key* in ``.bench_build/``: the
    human-readable ``engine_throughput.txt`` and its machine-readable twin
    ``engine_throughput.json`` (for ad-hoc tooling that would rather not
    scrape the prose lines). The CI gate reads ``--benchmark-json``."""
    record_result_line(build_dir / "engine_throughput.txt", key, line)
    record_result_json(build_dir / "engine_throughput.json", key, payload)


def build_scenario_throughput(n_machines_per_type: int, duration: float) -> Scenario:
    eet = generate_eet_cvb(
        4, 4, mean_task=12.0, v_task=0.4, v_machine=0.5, seed=3
    )
    return Scenario(
        eet=eet,
        machine_counts={n: n_machines_per_type for n in eet.machine_type_names},
        scheduler="MECT",
        generator={"duration": duration, "intensity": "medium"},
        seed=9,
        name="throughput",
    )


@pytest.mark.parametrize(
    "machines_per_type,duration",
    [(1, 400.0), (4, 400.0)],
    ids=["4-machines", "16-machines"],
)
def test_bench_engine_throughput(
    benchmark, build_dir, machines_per_type, duration
):
    scenario = build_scenario_throughput(machines_per_type, duration)

    result = benchmark(scenario.run)

    events_per_sec = result.events_processed / benchmark.stats["mean"]
    benchmark.extra_info["events"] = result.events_processed
    benchmark.extra_info["events_per_sec"] = events_per_sec
    _record(
        build_dir,
        f"engine throughput ({machines_per_type * 4} machines)",
        f"{result.events_processed} events, "
        f"{result.summary.total_tasks} tasks, "
        f"{events_per_sec:,.0f} events/s "
        f"(mean wall {benchmark.stats['mean'] * 1e3:.1f} ms)",
        events=result.events_processed,
        tasks=result.summary.total_tasks,
        events_per_sec=round(events_per_sec, 1),
        mean_wall_s=benchmark.stats["mean"],
    )

    assert result.summary.total_tasks > 0
    # Interactive envelope: the engine must process far faster than the
    # simulated clock advances (>> 1000 events/s on any modern machine).
    assert events_per_sec > 1000


def test_bench_batch_policy_throughput(benchmark, build_dir):
    """Batch mapping (Min-Min matrix loop) under a saturated queue."""
    eet = generate_eet_cvb(
        4, 4, mean_task=12.0, v_task=0.4, v_machine=0.5, seed=3
    )
    scenario = Scenario(
        eet=eet,
        machine_counts={n: 1 for n in eet.machine_type_names},
        scheduler="MM",
        queue_capacity=3,
        generator={"duration": 400.0, "intensity": "high"},
        seed=9,
        name="batch-throughput",
    )
    result = benchmark(scenario.run)
    events_per_sec = result.events_processed / benchmark.stats["mean"]
    benchmark.extra_info["events"] = result.events_processed
    benchmark.extra_info["events_per_sec"] = events_per_sec
    _record(
        build_dir,
        "batch MM throughput",
        f"{events_per_sec:,.0f} events/s ({result.summary.total_tasks} tasks)",
        events=result.events_processed,
        tasks=result.summary.total_tasks,
        events_per_sec=round(events_per_sec, 1),
        mean_wall_s=benchmark.stats["mean"],
    )
    assert events_per_sec > 500


def test_bench_federated_throughput(benchmark, build_dir):
    """Federated tier: two sites under heavy-tailed arrivals, every task
    routed through the gateway layer (and often across the WAN) before its
    destination cluster's vectorised local policy maps it. Guards the
    federation overhead: events/s must stay within the same order as the
    single-cluster engine (the committed baseline enforces the floor)."""
    scenario = build_scenario("fed_heavytail")
    result = benchmark.pedantic(
        scenario.run, rounds=3, iterations=1, warmup_rounds=1
    )
    events_per_sec = result.events_processed / benchmark.stats["mean"]
    benchmark.extra_info["events"] = result.events_processed
    benchmark.extra_info["events_per_sec"] = events_per_sec
    _record(
        build_dir,
        "federated tier (2 sites, heavy tail)",
        f"{result.events_processed} events, "
        f"{result.summary.total_tasks} tasks, "
        f"{result.offload_rate:.0%} offloaded, "
        f"{events_per_sec:,.0f} events/s",
        events=result.events_processed,
        tasks=result.summary.total_tasks,
        offload_rate=round(result.offload_rate, 4),
        events_per_sec=round(events_per_sec, 1),
        mean_wall_s=benchmark.stats["mean"],
    )
    assert result.summary.total_tasks > 2000
    assert 0.0 < result.offload_rate < 1.0
    assert events_per_sec > 1000


def test_bench_contended_wan_throughput(benchmark, build_dir):
    """Contended-WAN tier: the fed_congested preset, whose every offload
    runs the link state machines (FIFO + processor sharing) and per-link
    energy meters. Guards the WAN-as-queueing-resource overhead: turning
    the WAN into a simulated resource must not knock the federated engine
    out of its throughput envelope."""
    scenario = build_scenario("fed_congested")
    result = benchmark.pedantic(
        scenario.run, rounds=3, iterations=1, warmup_rounds=1
    )
    events_per_sec = result.events_processed / benchmark.stats["mean"]
    benchmark.extra_info["events"] = result.events_processed
    benchmark.extra_info["events_per_sec"] = events_per_sec
    _record(
        build_dir,
        "contended WAN tier (3 sites, fifo+ps links)",
        f"{result.events_processed} events, "
        f"{result.summary.total_tasks} tasks, "
        f"{result.offload_rate:.0%} offloaded, "
        f"{events_per_sec:,.0f} events/s",
        events=result.events_processed,
        tasks=result.summary.total_tasks,
        offload_rate=round(result.offload_rate, 4),
        events_per_sec=round(events_per_sec, 1),
        mean_wall_s=benchmark.stats["mean"],
    )
    assert result.summary.total_tasks > 500
    assert 0.0 < result.offload_rate < 1.0
    assert sum(u.delivered for u in result.wan_links.values()) > 0
    assert events_per_sec > 1000


def test_bench_migration_throughput(benchmark, build_dir):
    """Migration tier: the fed_rebalance preset, where a periodic rebalance
    pass evicts queued tasks and ships them over a contended FIFO uplink —
    every tick snapshots batch queues, runs the eviction policy, and every
    migration exercises the link state machine plus the in-flight
    cancellation path. Guards the rebalancer overhead: mid-queue migration
    must not knock the federated engine out of its throughput envelope."""
    scenario = build_scenario("fed_rebalance")
    result = benchmark.pedantic(
        scenario.run, rounds=3, iterations=1, warmup_rounds=1
    )
    events_per_sec = result.events_processed / benchmark.stats["mean"]
    benchmark.extra_info["events"] = result.events_processed
    benchmark.extra_info["events_per_sec"] = events_per_sec
    stats = result.migration_stats
    _record(
        build_dir,
        "migration tier (2 sites, mid-queue rebalancing)",
        f"{result.events_processed} events, "
        f"{result.summary.total_tasks} tasks, "
        f"{stats.attempted} migrations, "
        f"{events_per_sec:,.0f} events/s",
        events=result.events_processed,
        tasks=result.summary.total_tasks,
        migrations=stats.attempted,
        events_per_sec=round(events_per_sec, 1),
        mean_wall_s=benchmark.stats["mean"],
    )
    assert result.summary.total_tasks > 500
    assert stats.attempted > 0
    assert stats.attempted == stats.delivered + stats.cancelled_in_flight
    assert events_per_sec > 1000


def test_bench_adaptive_throughput(benchmark, build_dir):
    """Adaptive tier: the fed_adaptive preset, where every arrival runs
    the bandit's arm selection, every terminal task funnels back through
    the reward loop, and the rebalancer evaluates watermark hysteresis on
    each tick. Guards the learning-gateway overhead: the feedback path
    (one callback per terminal task) and the per-decision bookkeeping must
    not knock the federated engine out of its throughput envelope."""
    scenario = build_scenario("fed_adaptive")
    result = benchmark.pedantic(
        scenario.run, rounds=3, iterations=1, warmup_rounds=1
    )
    events_per_sec = result.events_processed / benchmark.stats["mean"]
    benchmark.extra_info["events"] = result.events_processed
    benchmark.extra_info["events_per_sec"] = events_per_sec
    _record(
        build_dir,
        "adaptive tier (bandit gateway + hysteresis)",
        f"{result.events_processed} events, "
        f"{result.summary.total_tasks} tasks, "
        f"{result.offload_rate:.0%} offloaded, "
        f"{events_per_sec:,.0f} events/s",
        events=result.events_processed,
        tasks=result.summary.total_tasks,
        offload_rate=round(result.offload_rate, 4),
        events_per_sec=round(events_per_sec, 1),
        mean_wall_s=benchmark.stats["mean"],
    )
    assert result.summary.total_tasks > 500
    assert 0.0 < result.offload_rate < 1.0
    assert events_per_sec > 1000


def test_bench_trace_replay_throughput(benchmark, build_dir):
    """Trace tier: the trace_replay preset, whose workload comes from the
    full TraceSpec ingestion pipeline (CSV parse, rescale, quantile
    binning, deadline synthesis) before the engine runs. Each round builds
    the scenario fresh so ingestion cost is measured, not memoised away —
    guards the import layer staying cheap relative to the simulation."""
    def run_from_cold():
        return build_scenario("trace_replay").run()

    result = benchmark.pedantic(
        run_from_cold, rounds=3, iterations=1, warmup_rounds=1
    )
    events_per_sec = result.events_processed / benchmark.stats["mean"]
    benchmark.extra_info["events"] = result.events_processed
    benchmark.extra_info["events_per_sec"] = events_per_sec
    _record(
        build_dir,
        "trace tier (ingestion + replay)",
        f"{result.events_processed} events, "
        f"{result.summary.total_tasks} tasks, "
        f"{events_per_sec:,.0f} events/s",
        events=result.events_processed,
        tasks=result.summary.total_tasks,
        events_per_sec=round(events_per_sec, 1),
        mean_wall_s=benchmark.stats["mean"],
    )
    assert result.summary.total_tasks == 420
    assert events_per_sec > 500


def test_bench_cross_traffic_throughput(benchmark, build_dir):
    """Cross-traffic tier: the diurnal_wan preset, where every WAN
    transfer is re-integrated at each utilisation epoch (diurnal ticks on
    the FIFO uplink, MMPP switches on the PS uplink). Guards the residual-
    capacity machinery: background traffic must not knock the contended-WAN
    engine out of its throughput envelope."""
    scenario = build_scenario("diurnal_wan")
    result = benchmark.pedantic(
        scenario.run, rounds=3, iterations=1, warmup_rounds=1
    )
    events_per_sec = result.events_processed / benchmark.stats["mean"]
    benchmark.extra_info["events"] = result.events_processed
    benchmark.extra_info["events_per_sec"] = events_per_sec
    _record(
        build_dir,
        "cross-traffic tier (diurnal + mmpp uplinks)",
        f"{result.events_processed} events, "
        f"{result.summary.total_tasks} tasks, "
        f"{result.offload_rate:.0%} offloaded, "
        f"{events_per_sec:,.0f} events/s",
        events=result.events_processed,
        tasks=result.summary.total_tasks,
        offload_rate=round(result.offload_rate, 4),
        events_per_sec=round(events_per_sec, 1),
        mean_wall_s=benchmark.stats["mean"],
    )
    assert result.summary.total_tasks > 500
    assert 0.0 < result.offload_rate < 1.0
    assert events_per_sec > 1000


def test_bench_scale_tier_throughput(benchmark, build_dir):
    """Scale tier: 96 machines, ~11k tasks — the registered scale_campus
    preset, run once per round (the workload is large enough that a single
    run is a stable measurement)."""
    scenario = build_scenario("scale_campus")
    result = benchmark.pedantic(scenario.run, rounds=3, iterations=1, warmup_rounds=1)
    events_per_sec = result.events_processed / benchmark.stats["mean"]
    benchmark.extra_info["events"] = result.events_processed
    benchmark.extra_info["events_per_sec"] = events_per_sec
    _record(
        build_dir,
        "scale tier (96 machines)",
        f"{result.events_processed} events, "
        f"{result.summary.total_tasks} tasks, "
        f"{events_per_sec:,.0f} events/s",
        events=result.events_processed,
        tasks=result.summary.total_tasks,
        events_per_sec=round(events_per_sec, 1),
        mean_wall_s=benchmark.stats["mean"],
    )
    assert result.summary.total_tasks > 5000
    assert events_per_sec > 1000


def test_bench_scale_federation_throughput(benchmark, build_dir):
    """Federation-scale tier: the scale_federation preset — 24 sites, 1152
    machines, ~28k tasks, every one routed through the random-split gateway
    and (23 times out of 24) shipped across the uniform WAN. The largest
    committed workload; guards the serial federated engine at the scale the
    parallel path is built for."""
    scenario = build_scenario("scale_federation")
    result = benchmark.pedantic(
        scenario.run, rounds=3, iterations=1, warmup_rounds=1
    )
    events_per_sec = result.events_processed / benchmark.stats["mean"]
    benchmark.extra_info["events"] = result.events_processed
    benchmark.extra_info["events_per_sec"] = events_per_sec
    _record(
        build_dir,
        "federation scale tier (24 sites, serial)",
        f"{result.events_processed} events, "
        f"{result.summary.total_tasks} tasks, "
        f"{result.offload_rate:.0%} offloaded, "
        f"{events_per_sec:,.0f} events/s",
        events=result.events_processed,
        tasks=result.summary.total_tasks,
        offload_rate=round(result.offload_rate, 4),
        events_per_sec=round(events_per_sec, 1),
        mean_wall_s=benchmark.stats["mean"],
    )
    assert result.summary.total_tasks > 20000
    assert 0.0 < result.offload_rate < 1.0
    assert events_per_sec > 1000


def test_bench_hierarchy_throughput(benchmark, build_dir):
    """Hierarchy tier: the hier_3region preset — 18 leaf clusters under a
    3-level tree, every offload hopping site and region uplinks store-and-
    forward (each hop its own transfer on a shared FIFO channel) and every
    arrival running the tree-pressure gateway's rolled-up subtree walk.
    Guards the relay machinery: path routing must not knock the federated
    engine out of its throughput envelope."""
    scenario = build_scenario("hier_3region")
    result = benchmark.pedantic(
        scenario.run, rounds=3, iterations=1, warmup_rounds=1
    )
    events_per_sec = result.events_processed / benchmark.stats["mean"]
    benchmark.extra_info["events"] = result.events_processed
    benchmark.extra_info["events_per_sec"] = events_per_sec
    _record(
        build_dir,
        "hierarchy tier (3 regions x 3 sites x 2 clusters)",
        f"{result.events_processed} events, "
        f"{result.summary.total_tasks} tasks, "
        f"{result.offload_rate:.0%} offloaded, "
        f"{events_per_sec:,.0f} events/s",
        events=result.events_processed,
        tasks=result.summary.total_tasks,
        offload_rate=round(result.offload_rate, 4),
        events_per_sec=round(events_per_sec, 1),
        mean_wall_s=benchmark.stats["mean"],
    )
    assert result.summary.total_tasks > 500
    assert 0.0 < result.offload_rate < 1.0
    assert result.tree.root.stats["wan_attempted"] == result.offloaded
    assert events_per_sec > 1000


def test_bench_deep_hierarchy_throughput(benchmark, build_dir):
    """Deep-hierarchy tier: the hier_deep preset — leaves at mixed depths
    (1 to 4), cross-tree offloads crossing up to three shared uplinks, the
    deepest of them deliberately skinny. Guards the worst-case relay chain:
    long store-and-forward paths and deep rollups must stay in the
    envelope."""
    scenario = build_scenario("hier_deep")
    result = benchmark.pedantic(
        scenario.run, rounds=3, iterations=1, warmup_rounds=1
    )
    events_per_sec = result.events_processed / benchmark.stats["mean"]
    benchmark.extra_info["events"] = result.events_processed
    benchmark.extra_info["events_per_sec"] = events_per_sec
    _record(
        build_dir,
        "deep hierarchy tier (4 levels, mixed-depth leaves)",
        f"{result.events_processed} events, "
        f"{result.summary.total_tasks} tasks, "
        f"{result.offload_rate:.0%} offloaded, "
        f"{events_per_sec:,.0f} events/s",
        events=result.events_processed,
        tasks=result.summary.total_tasks,
        offload_rate=round(result.offload_rate, 4),
        events_per_sec=round(events_per_sec, 1),
        mean_wall_s=benchmark.stats["mean"],
    )
    assert result.summary.total_tasks > 300
    assert 0.0 < result.offload_rate < 1.0
    assert result.tree.root.stats["wan_attempted"] == result.offloaded
    assert events_per_sec > 1000
