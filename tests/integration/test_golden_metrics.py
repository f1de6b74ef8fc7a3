"""Golden-metrics determinism: pinned SummaryMetrics for preset scenarios.

These tests freeze the *exact* numeric output of several registered presets
(two single-cluster, one failure-enabled, one trace-driven, five federated —
contended WAN links, mid-queue migration, background cross-traffic and the
learning bandit gateway included) at fixed seeds. Their purpose is to make hot-path
refactors falsifiable: any
change to event ordering, floating-point evaluation order, RNG consumption,
or metrics aggregation that alters simulation results — however slightly —
fails here with a precise diff, instead of silently shifting every figure
the repository regenerates.

The values were recorded from the engine as of the hot-path overhaul PR
(which itself reproduced the pre-overhaul engine bit-for-bit). If a future
change *intentionally* alters results, re-pin these dictionaries in the same
commit and say why in its message.
"""

import pytest

from repro.scenarios import build_scenario

#: satellite_imaging preset under the Min-Min batch policy, seed 41.
GOLDEN_SATELLITE_MM_SEED41 = {
    "total_tasks": 231,
    "completed": 231,
    "cancelled": 0,
    "missed": 0,
    "completion_rate": 1.0,
    "cancellation_rate": 0.0,
    "miss_rate": 0.0,
    "on_time": 231,
    "on_time_rate": 1.0,
    "makespan": 604.7227037857455,
    "total_energy": 226072.09876250156,
    "idle_energy": 40232.09876250155,
    "busy_energy": 185840.0,
    "energy_per_completed_task": 978.6670942099635,
    "mean_wait_time": 2.9922305547029966,
    "mean_response_time": 9.01387557634802,
    "throughput": 0.34332224629298114,
    "mean_utilization": 0.516841173802529,
    "fairness_index": 1.0,
    "completion_rate[image_enhancement]": 1.0,
    "completion_rate[noise_removal]": 1.0,
    "completion_rate[object_detection]": 1.0,
}
GOLDEN_SATELLITE_EVENTS = 693
GOLDEN_SATELLITE_END_TIME = 672.8372614772868

#: edge_ai preset with its default FELARE policy and stock seed (11).
GOLDEN_EDGE_AI_FELARE = {
    "total_tasks": 309,
    "completed": 230,
    "cancelled": 53,
    "missed": 26,
    "completion_rate": 0.7443365695792881,
    "cancellation_rate": 0.1715210355987055,
    "miss_rate": 0.08414239482200647,
    "on_time": 230,
    "on_time_rate": 0.7443365695792881,
    "makespan": 435.3406242518471,
    "total_energy": 20916.994251413937,
    "idle_energy": 357.72767193532894,
    "busy_energy": 20559.266579478608,
    "energy_per_completed_task": 90.94345326701712,
    "mean_wait_time": 19.579392883076395,
    "mean_response_time": 26.611401585012942,
    "throughput": 0.521477580800053,
    "mean_utilization": 0.9599407090092269,
    "fairness_index": 0.9997405643111807,
    "completion_rate[face_recognition]": 0.73,
    "completion_rate[object_detection]": 0.7425742574257426,
    "completion_rate[speech_recognition]": 0.7592592592592593,
}
GOLDEN_EDGE_AI_EVENTS = 848
GOLDEN_EDGE_AI_END_TIME = 441.0544354507687

#: satellite_imaging with failure injection (mtbf=120, mttr=30), MM, seed 41.
GOLDEN_SATELLITE_FAULTY_MM_SEED41 = {
    "total_tasks": 231,
    "completed": 193,
    "cancelled": 6,
    "missed": 32,
    "completion_rate": 0.8354978354978355,
    "cancellation_rate": 0.025974025974025976,
    "miss_rate": 0.13852813852813853,
    "on_time": 193,
    "on_time_rate": 0.8354978354978355,
    "makespan": 644.5914613599795,
    "total_energy": 256531.6083688552,
    "idle_energy": 46158.528375626185,
    "busy_energy": 210373.079993229,
    "energy_per_completed_task": 1329.1793179733431,
    "mean_wait_time": 19.683964253806074,
    "mean_response_time": 24.811845502105722,
    "throughput": 0.1764056053472596,
    "mean_utilization": 0.394516191432152,
    "fairness_index": 0.9957049129218317,
    "completion_rate[image_enhancement]": 0.8947368421052632,
    "completion_rate[noise_removal]": 0.8230088495575221,
    "completion_rate[object_detection]": 0.7619047619047619,
}
GOLDEN_SATELLITE_FAULTY_EVENTS = 703
GOLDEN_SATELLITE_FAULTY_END_TIME = 1094.0695428587649

#: edge_cloud federated preset under its stock EET_AWARE_REMOTE gateway.
GOLDEN_EDGE_CLOUD_GLOBAL = {
    "total_tasks": 699,
    "completed": 699,
    "cancelled": 0,
    "missed": 0,
    "completion_rate": 1.0,
    "cancellation_rate": 0.0,
    "miss_rate": 0.0,
    "on_time": 699,
    "on_time_rate": 1.0,
    "makespan": 409.1590699643162,
    "total_energy": 417580.05747537746,
    "idle_energy": 39718.05747537745,
    "busy_energy": 377862.0,
    "energy_per_completed_task": 597.3963626257188,
    "mean_wait_time": 2.878807832096141,
    "mean_response_time": 6.611282796330766,
    "throughput": 1.3661378549911254,
    "mean_utilization": 0.5099075341447563,
    "fairness_index": 1.0,
    "completion_rate[model_update]": 1.0,
    "completion_rate[sensor_fusion]": 1.0,
    "completion_rate[video_analytics]": 1.0,
}
GOLDEN_EDGE_CLOUD_EVENTS = 2723
GOLDEN_EDGE_CLOUD_END_TIME = 511.6613945263531
GOLDEN_EDGE_CLOUD_ROUTING = {
    "edge": {"edge": 73, "cloud": 626},
    "cloud": {"edge": 0, "cloud": 0},
}

#: fed_congested preset: contended WAN links (FIFO + processor sharing)
#: with per-link energy, under the congestion-aware EET_AWARE_REMOTE.
GOLDEN_FED_CONGESTED_GLOBAL = {
    "total_tasks": 800,
    "completed": 627,
    "cancelled": 0,
    "missed": 173,
    "completion_rate": 0.78375,
    "cancellation_rate": 0.0,
    "miss_rate": 0.21625,
    "on_time": 627,
    "on_time_rate": 0.78375,
    "makespan": 344.25926907998087,
    "total_energy": 371360.1892161525,
    "idle_energy": 19415.676667335145,
    "busy_energy": 351944.5125488173,
    "energy_per_completed_task": 592.2810035345334,
    "mean_wait_time": 15.885799988162992,
    "mean_response_time": 21.384953252637658,
    "throughput": 1.5340254484664446,
    "mean_utilization": 0.7768407693780794,
    "fairness_index": 0.9614600596725863,
    "completion_rate[model_update]": 1.0,
    "completion_rate[sensor_fusion]": 0.6279569892473118,
    "completion_rate[video_analytics]": 1.0,
}
GOLDEN_FED_CONGESTED_EVENTS = 3473
GOLDEN_FED_CONGESTED_END_TIME = 408.728551815622
GOLDEN_FED_CONGESTED_ROUTING = {
    "edge_a": {"edge_a": 106, "edge_b": 96, "cloud": 200},
    "edge_b": {"edge_a": 61, "edge_b": 71, "cloud": 266},
    "cloud": {"edge_a": 0, "edge_b": 0, "cloud": 0},
}
GOLDEN_FED_CONGESTED_WAN_TIME = 2031.877173827545
#: Per-link (delivered, busy_time, transfer_energy) triples.
GOLDEN_FED_CONGESTED_LINKS = {
    "edge_a<->cloud": (200, 252.875, 708.0499999999997),
    "edge_a<->edge_b": (157, 2.1499999999992276, 15.050000000000036),
    "edge_b<->cloud": (266, 260.93749999999994, 730.6249999999985),
}

#: fed_rebalance preset: mid-queue migration (LONGEST_WAIT every 3 s) off a
#: saturated access site over a contended FIFO uplink, sticky gateway.
GOLDEN_FED_REBALANCE_GLOBAL = {
    "total_tasks": 694,
    "completed": 462,
    "cancelled": 127,
    "missed": 105,
    "completion_rate": 0.6657060518731989,
    "cancellation_rate": 0.1829971181556196,
    "miss_rate": 0.15129682997118155,
    "on_time": 462,
    "on_time_rate": 0.6657060518731989,
    "makespan": 350.9449856665051,
    "total_energy": 306080.74653679924,
    "idle_energy": 47824.316422785945,
    "busy_energy": 258256.4301140133,
    "energy_per_completed_task": 662.5124383913403,
    "mean_wait_time": 18.228127619813776,
    "mean_response_time": 22.92737603865774,
    "throughput": 1.1269930702489348,
    "mean_utilization": 0.6450476252513202,
    "fairness_index": 0.9397142442307997,
    "completion_rate[model_update]": 1.0,
    "completion_rate[sensor_fusion]": 0.5773195876288659,
    "completion_rate[video_analytics]": 0.6363636363636364,
}
GOLDEN_FED_REBALANCE_EVENTS = 2699
GOLDEN_FED_REBALANCE_END_TIME = 409.94040885979143
#: The sticky gateway never offloads at arrival; every cross-cluster move
#: is a mid-queue migration (including two back-migrations relief→access).
GOLDEN_FED_REBALANCE_ROUTING = {
    "access": {"access": 694, "relief": 0},
    "relief": {"access": 0, "relief": 0},
}
GOLDEN_FED_REBALANCE_MIGRATIONS = {
    "access": {"access": 0, "relief": 491},
    "relief": {"access": 2, "relief": 0},
}
GOLDEN_FED_REBALANCE_STATS = {
    "attempted": 493,
    "delivered": 366,
    "cancelled_in_flight": 127,
    "completed": 313,
    "migrated_task_energy": 236180.0,
    "migration_wan_energy": 968.6999999999982,
}
#: Uplink (delivered, abandoned, busy_time, transfer_energy).
GOLDEN_FED_REBALANCE_LINK = (
    366,
    127,
    340.6449856665051,
    1021.9349569995102,
)


#: fed_adaptive preset: the learning bandit gateway (UCB) + watermark
#: hysteresis rebalancing on the saturated two-site federation.
GOLDEN_FED_ADAPTIVE_GLOBAL = {
    "total_tasks": 871,
    "completed": 524,
    "cancelled": 207,
    "missed": 140,
    "completion_rate": 0.6016073478760046,
    "cancellation_rate": 0.23765786452353616,
    "miss_rate": 0.16073478760045926,
    "on_time": 524,
    "on_time_rate": 0.6016073478760046,
    "makespan": 431.60000000000315,
    "total_energy": 408683.7170309588,
    "idle_energy": 40918.28656422716,
    "busy_energy": 367765.43046673166,
    "energy_per_completed_task": 779.9307576926694,
    "mean_wait_time": 18.929205376572977,
    "mean_response_time": 23.848717395537875,
    "throughput": 1.0521528580932853,
    "mean_utilization": 0.7210687165822731,
    "fairness_index": 0.8762828763252646,
    "completion_rate[model_update]": 0.926829268292683,
    "completion_rate[sensor_fusion]": 0.3410041841004184,
    "completion_rate[video_analytics]": 0.9148148148148149,
}
GOLDEN_FED_ADAPTIVE_EVENTS = 3534
GOLDEN_FED_ADAPTIVE_END_TIME = 498.0264948855382
#: Unlike the sticky fed_rebalance gateway, the bandit learns to offload
#: most arrivals at the gate; hysteresis keeps migrations to a trickle.
GOLDEN_FED_ADAPTIVE_ROUTING = {
    "access": {"access": 217, "relief": 654},
    "relief": {"access": 0, "relief": 0},
}
GOLDEN_FED_ADAPTIVE_MIGRATIONS = {
    "access": {"access": 0, "relief": 94},
    "relief": {"access": 21, "relief": 0},
}
GOLDEN_FED_ADAPTIVE_STATS = {
    "attempted": 115,
    "delivered": 66,
    "cancelled_in_flight": 49,
    "completed": 48,
    "migrated_task_energy": 38110.0,
    "migration_wan_energy": 169.95000000000002,
}
#: Uplink (delivered, abandoned, busy_time, transfer_energy) — offloads
#: and migrations share the same contended FIFO channel.
GOLDEN_FED_ADAPTIVE_LINK = (
    562,
    207,
    401.7500000000028,
    1205.2499999999973,
)


#: trace_replay preset: the bundled Google-style trace quantile-binned into
#: the EET's task types, deadlines synthesised from relative deadlines.
GOLDEN_TRACE_REPLAY = {
    "total_tasks": 420,
    "completed": 275,
    "cancelled": 0,
    "missed": 145,
    "completion_rate": 0.6547619047619048,
    "cancellation_rate": 0.0,
    "miss_rate": 0.34523809523809523,
    "on_time": 275,
    "on_time_rate": 0.6547619047619048,
    "makespan": 574.1221508979797,
    "total_energy": 472631.0614478588,
    "idle_energy": 4529.673712253571,
    "busy_energy": 468101.38773560524,
    "energy_per_completed_task": 1718.6584052649412,
    "mean_wait_time": 37.640216494217896,
    "mean_response_time": 45.08915016087619,
    "throughput": 0.4738950206546268,
    "mean_utilization": 0.8776446024063835,
    "fairness_index": 0.846960048310361,
    "completion_rate[heavy]": 0.9574468085106383,
    "completion_rate[light]": 0.2857142857142857,
    "completion_rate[standard]": 0.7194244604316546,
}
GOLDEN_TRACE_REPLAY_EVENTS = 1115
GOLDEN_TRACE_REPLAY_END_TIME = 580.2972979545593

#: diurnal_wan preset: background cross-traffic (diurnal sinusoid on the
#: FIFO uplink, MMPP bursts on the PS uplink) squeezing residual capacity.
GOLDEN_DIURNAL_WAN_GLOBAL = {
    "total_tasks": 653,
    "completed": 548,
    "cancelled": 7,
    "missed": 98,
    "completion_rate": 0.8392036753445635,
    "cancellation_rate": 0.010719754977029096,
    "miss_rate": 0.15007656967840735,
    "on_time": 548,
    "on_time_rate": 0.8392036753445635,
    "makespan": 327.8469120030661,
    "total_energy": 322888.08962037606,
    "idle_energy": 34278.80298247368,
    "busy_energy": 288609.2866379024,
    "energy_per_completed_task": 589.211842372949,
    "mean_wait_time": 11.521866121448824,
    "mean_response_time": 16.612781548615843,
    "throughput": 1.3962108773295847,
    "mean_utilization": 0.7095187737488584,
    "fairness_index": 0.9830159840650309,
    "completion_rate[model_update]": 1.0,
    "completion_rate[sensor_fusion]": 0.7329700272479565,
    "completion_rate[video_analytics]": 0.9629629629629629,
}
GOLDEN_DIURNAL_WAN_EVENTS = 2985
GOLDEN_DIURNAL_WAN_END_TIME = 392.4908542813487
GOLDEN_DIURNAL_WAN_ROUTING = {
    "edge_a": {"edge_a": 108, "edge_b": 117, "cloud": 115},
    "edge_b": {"edge_a": 6, "edge_b": 6, "cloud": 301},
    "cloud": {"edge_a": 0, "edge_b": 0, "cloud": 0},
}
GOLDEN_DIURNAL_WAN_TIME = 3990.1445419526212
#: Per-link (delivered, abandoned, busy_time, transfer_energy) tuples.
GOLDEN_DIURNAL_WAN_LINKS = {
    "edge_a<->cloud": (108, 7, 316.710483757665, 500.3250000000005),
    "edge_a<->edge_b": (123, 0, 5.324999999999273, 37.27499999999993),
    "edge_b<->cloud": (301, 0, 248.2305407443858, 610.2250000000001),
}


#: classroom_homogeneous under MM with queue capacity 3, a 2 s / 5 MBps link
#: to every machine and lognormal runtime noise (sigma 0.3): the network
#: extension and noisy execution, which no registered preset sets.
GOLDEN_NOISY_NETWORK_MM = {
    "total_tasks": 107,
    "completed": 106,
    "cancelled": 0,
    "missed": 1,
    "completion_rate": 0.9906542056074766,
    "cancellation_rate": 0.0,
    "miss_rate": 0.009345794392523364,
    "on_time": 106,
    "on_time_rate": 0.9906542056074766,
    "makespan": 636.4145491819054,
    "total_energy": 0.0,
    "idle_energy": 0.0,
    "busy_energy": 0.0,
    "energy_per_completed_task": 0.0,
    "mean_wait_time": 13.727972602007348,
    "mean_response_time": 33.31324153936933,
    "throughput": 0.15011053395880625,
    "mean_utilization": 0.7471222669610187,
    "fairness_index": 0.9997784424504265,
    "completion_rate[T1]": 0.96875,
    "completion_rate[T2]": 1.0,
    "completion_rate[T3]": 1.0,
}
GOLDEN_NOISY_NETWORK_EVENTS = 427
GOLDEN_NOISY_NETWORK_END_TIME = 706.146312350663

def _assert_exact(actual: dict, expected: dict) -> None:
    assert set(actual) == set(expected)
    mismatches = {
        key: (expected[key], actual[key])
        for key in expected
        if actual[key] != expected[key]
    }
    assert not mismatches, (
        "SummaryMetrics drifted from the golden pin (expected, actual): "
        f"{mismatches}"
    )


class TestGoldenSatelliteImaging:
    @pytest.fixture(scope="class")
    def result(self):
        return build_scenario("satellite_imaging", scheduler="MM", seed=41).run()

    def test_summary_exact(self, result):
        _assert_exact(result.summary.as_dict(), GOLDEN_SATELLITE_MM_SEED41)

    def test_event_count_and_end_time_exact(self, result):
        assert result.events_processed == GOLDEN_SATELLITE_EVENTS
        assert result.end_time == GOLDEN_SATELLITE_END_TIME


class TestGoldenEdgeAIFelare:
    @pytest.fixture(scope="class")
    def result(self):
        return build_scenario("edge_ai").run()

    def test_summary_exact(self, result):
        _assert_exact(result.summary.as_dict(), GOLDEN_EDGE_AI_FELARE)

    def test_event_count_and_end_time_exact(self, result):
        assert result.events_processed == GOLDEN_EDGE_AI_EVENTS
        assert result.end_time == GOLDEN_EDGE_AI_END_TIME


class TestGoldenSatelliteFaulty:
    """Failure injection pinned: exponential crash/repair on every machine."""

    @pytest.fixture(scope="class")
    def result(self):
        return build_scenario(
            "satellite_imaging", scheduler="MM", seed=41, mtbf=120.0
        ).run()

    def test_summary_exact(self, result):
        _assert_exact(
            result.summary.as_dict(), GOLDEN_SATELLITE_FAULTY_MM_SEED41
        )

    def test_event_count_and_end_time_exact(self, result):
        assert result.events_processed == GOLDEN_SATELLITE_FAULTY_EVENTS
        assert result.end_time == GOLDEN_SATELLITE_FAULTY_END_TIME


class TestGoldenEdgeCloudFederated:
    """Federated preset pinned: gateway routing included."""

    @pytest.fixture(scope="class")
    def result(self):
        return build_scenario("edge_cloud").run()

    def test_summary_exact(self, result):
        _assert_exact(result.summary.as_dict(), GOLDEN_EDGE_CLOUD_GLOBAL)

    def test_event_count_and_end_time_exact(self, result):
        assert result.events_processed == GOLDEN_EDGE_CLOUD_EVENTS
        assert result.end_time == GOLDEN_EDGE_CLOUD_END_TIME

    def test_routing_matrix_exact(self, result):
        assert result.routing == GOLDEN_EDGE_CLOUD_ROUTING
        assert result.offloaded == 626


class TestGoldenFedCongested:
    """Contended-WAN federated preset pinned: FIFO + PS link timing, link
    energy, and the congestion-aware gateway's routing are all frozen."""

    @pytest.fixture(scope="class")
    def result(self):
        return build_scenario("fed_congested").run()

    def test_summary_exact(self, result):
        _assert_exact(result.summary.as_dict(), GOLDEN_FED_CONGESTED_GLOBAL)

    def test_event_count_and_end_time_exact(self, result):
        assert result.events_processed == GOLDEN_FED_CONGESTED_EVENTS
        assert result.end_time == GOLDEN_FED_CONGESTED_END_TIME

    def test_routing_and_wan_time_exact(self, result):
        assert result.routing == GOLDEN_FED_CONGESTED_ROUTING
        assert result.wan_time_total == GOLDEN_FED_CONGESTED_WAN_TIME

    def test_link_usage_exact(self, result):
        observed = {
            label: (usage.delivered, usage.busy_time, usage.transfer_energy)
            for label, usage in result.wan_links.items()
        }
        assert observed == GOLDEN_FED_CONGESTED_LINKS

    def test_energy_rollup_identity(self, result):
        # Global machine energy == sum of per-cluster energies, and the
        # federation total == machines + every link's energy account.
        per_cluster = sum(
            s.total_energy for s in result.per_cluster.values()
        )
        assert result.summary.total_energy == pytest.approx(per_cluster)
        per_link = sum(u.total_energy for u in result.wan_links.values())
        assert result.total_energy_with_wan == pytest.approx(
            per_cluster + per_link
        )
        assert result.wan_energy_total == pytest.approx(per_link)

    def test_energy_split_accounts_every_completed_task(self, result):
        split = result.energy_split
        assert (
            split.local_completed + split.offloaded_completed
            == result.summary.completed
        )
        assert split.wan_transfer_energy > 0
        assert split.energy_per_offloaded_task > split.energy_per_local_task


class TestGoldenFedRebalance:
    """Mid-queue migration pinned: eviction counts, in-flight cancellations,
    the migration matrix, and the contended uplink's accounting are frozen."""

    @pytest.fixture(scope="class")
    def result(self):
        return build_scenario("fed_rebalance").run()

    def test_summary_exact(self, result):
        _assert_exact(result.summary.as_dict(), GOLDEN_FED_REBALANCE_GLOBAL)

    def test_event_count_and_end_time_exact(self, result):
        assert result.events_processed == GOLDEN_FED_REBALANCE_EVENTS
        assert result.end_time == GOLDEN_FED_REBALANCE_END_TIME

    def test_routing_and_migration_matrices_exact(self, result):
        assert result.routing == GOLDEN_FED_REBALANCE_ROUTING
        assert result.offloaded == 0  # the sticky gateway never spills
        assert result.migrations == GOLDEN_FED_REBALANCE_MIGRATIONS

    def test_migration_stats_exact(self, result):
        stats = result.migration_stats
        for key, expected in GOLDEN_FED_REBALANCE_STATS.items():
            assert getattr(stats, key) == expected, key

    def test_migration_conservation(self, result):
        # No migrated task lost or double-counted: every eviction either
        # reached the destination queue or was cancelled in flight, and the
        # global outcome counters still account for the whole workload.
        stats = result.migration_stats
        assert stats.attempted == stats.delivered + stats.cancelled_in_flight
        summary = result.summary
        assert (
            summary.completed + summary.cancelled + summary.missed
            == summary.total_tasks
        )

    def test_uplink_usage_exact(self, result):
        usage = result.wan_links["access<->relief"]
        assert (
            usage.delivered,
            usage.abandoned,
            usage.busy_time,
            usage.transfer_energy,
        ) == GOLDEN_FED_REBALANCE_LINK

    def test_migration_without_rebalancer_is_absent(self):
        result = build_scenario("fed_rebalance", migration=None).run()
        assert result.migrations == {}
        assert result.migration_stats.attempted == 0
        # The control arm demonstrates the unlock: the sticky gateway alone
        # completes far less of the same workload.
        assert (
            result.summary.completion_rate
            < GOLDEN_FED_REBALANCE_GLOBAL["completion_rate"] - 0.15
        )


class TestGoldenFedAdaptive:
    """The learning gateway pinned: bandit arm exploration order, reward
    feedback through the terminal-task funnel, and watermark-hysteresis
    migration triggering are all frozen bit-for-bit."""

    @pytest.fixture(scope="class")
    def result(self):
        return build_scenario("fed_adaptive").run()

    def test_summary_exact(self, result):
        _assert_exact(result.summary.as_dict(), GOLDEN_FED_ADAPTIVE_GLOBAL)

    def test_event_count_and_end_time_exact(self, result):
        assert result.events_processed == GOLDEN_FED_ADAPTIVE_EVENTS
        assert result.end_time == GOLDEN_FED_ADAPTIVE_END_TIME

    def test_routing_and_migration_matrices_exact(self, result):
        assert result.routing == GOLDEN_FED_ADAPTIVE_ROUTING
        assert result.offloaded == 654
        assert result.migrations == GOLDEN_FED_ADAPTIVE_MIGRATIONS

    def test_migration_stats_exact(self, result):
        stats = result.migration_stats
        for key, expected in GOLDEN_FED_ADAPTIVE_STATS.items():
            assert getattr(stats, key) == expected, key

    def test_uplink_usage_exact(self, result):
        usage = result.wan_links["access<->relief"]
        assert (
            usage.delivered,
            usage.abandoned,
            usage.busy_time,
            usage.transfer_energy,
        ) == GOLDEN_FED_ADAPTIVE_LINK

    def test_conservation(self, result):
        stats = result.migration_stats
        assert stats.attempted == stats.delivered + stats.cancelled_in_flight
        summary = result.summary
        assert (
            summary.completed + summary.cancelled + summary.missed
            == summary.total_tasks
        )

    def test_adaptive_beats_eet_aware_remote(self, result):
        # The learning unlock the preset exists to demonstrate: on the same
        # workload the bandit completes at least as much as the strongest
        # hand-tuned gateway.
        eet = build_scenario(
            "fed_adaptive", gateway="EET_AWARE_REMOTE"
        ).run()
        assert (
            result.summary.completion_rate
            >= eet.summary.completion_rate
        )


class TestGoldenTraceReplay:
    """The trace ingestion pipeline pinned end-to-end: column mapping,
    time rescaling, quantile binning, deadline synthesis, id reassignment."""

    @pytest.fixture(scope="class")
    def result(self):
        return build_scenario("trace_replay").run()

    def test_summary_exact(self, result):
        _assert_exact(result.summary.as_dict(), GOLDEN_TRACE_REPLAY)

    def test_event_count_and_end_time_exact(self, result):
        assert result.events_processed == GOLDEN_TRACE_REPLAY_EVENTS
        assert result.end_time == GOLDEN_TRACE_REPLAY_END_TIME

    def test_json_round_trip_replays_identically(self):
        from repro.core.config import Scenario

        scenario = build_scenario("trace_replay")
        clone = Scenario.from_json(scenario.to_json())
        assert clone.run().summary.as_dict() == GOLDEN_TRACE_REPLAY


class TestGoldenDiurnalWan:
    """Background cross-traffic pinned: the residual-capacity path through
    both disciplines (FIFO + diurnal, PS + MMPP) is frozen bit-for-bit."""

    @pytest.fixture(scope="class")
    def result(self):
        return build_scenario("diurnal_wan").run()

    def test_summary_exact(self, result):
        _assert_exact(result.summary.as_dict(), GOLDEN_DIURNAL_WAN_GLOBAL)

    def test_event_count_and_end_time_exact(self, result):
        assert result.events_processed == GOLDEN_DIURNAL_WAN_EVENTS
        assert result.end_time == GOLDEN_DIURNAL_WAN_END_TIME

    def test_routing_and_wan_time_exact(self, result):
        assert result.routing == GOLDEN_DIURNAL_WAN_ROUTING
        assert result.wan_time_total == GOLDEN_DIURNAL_WAN_TIME

    def test_link_usage_exact(self, result):
        triples = {
            label: (u.delivered, u.abandoned, u.busy_time, u.transfer_energy)
            for label, u in result.wan_links.items()
        }
        assert triples == GOLDEN_DIURNAL_WAN_LINKS

    def test_cross_traffic_changes_the_outcome(self):
        # Strip the cross-traffic specs from the JSON form and re-run: the
        # unmodulated twin must complete strictly more of the same workload
        # (the background load only ever removes capacity).
        from repro.core.config import Scenario

        spec = build_scenario("diurnal_wan").to_dict()
        for link in spec["federation"]["topology"]["links"].values():
            link.pop("cross_traffic", None)
        plain = Scenario.from_dict(spec).run()
        assert (
            plain.summary.completed
            > GOLDEN_DIURNAL_WAN_GLOBAL["completed"]
        )


class TestConservation:
    """No task lost or duplicated — per cluster and globally.

    arrivals == completed + cancelled + missed must hold through offloads
    (WAN in-transit cancellations) and machine failures (requeues).
    """

    def test_single_cluster_with_failures(self):
        result = build_scenario(
            "satellite_imaging", scheduler="MM", seed=41, mtbf=120.0
        ).run()
        summary = result.summary
        assert (
            summary.completed + summary.cancelled + summary.missed
            == summary.total_tasks
        )

    def test_federated_per_cluster_and_global(self):
        result = build_scenario("edge_cloud").run()
        arrivals = {
            dst: sum(row[dst] for row in result.routing.values())
            for dst in result.routing
        }
        for name, summary in result.per_cluster.items():
            assert (
                summary.completed + summary.cancelled + summary.missed
                == summary.total_tasks
            )
            assert summary.total_tasks == arrivals[name]
        total = result.summary
        assert (
            total.completed + total.cancelled + total.missed
            == total.total_tasks
        )
        assert sum(arrivals.values()) == total.total_tasks


class TestGoldenStability:
    """The same seed must reproduce the identical summary twice in-process."""

    def test_back_to_back_runs_identical(self):
        scenario = build_scenario("satellite_imaging", scheduler="MM", seed=41)
        first = scenario.run()
        second = scenario.run()
        assert first.summary == second.summary
        assert first.events_processed == second.events_processed


class TestGoldenNoisyNetwork:
    """Noisy runtimes over the network extension, pinned; each runtime draw
    belongs to one started task, however often its machine is polled."""

    @pytest.fixture(scope="class")
    def run(self):
        from dataclasses import replace

        base = build_scenario("classroom_homogeneous", scheduler="MM")
        scenario = replace(
            base,
            queue_capacity=3,
            enable_network=True,
            network={name: (2.0, 5.0) for name in base.eet.machine_type_names},
            execution_model={"kind": "lognormal", "sigma": 0.3},
        )
        sim = scenario.build_simulator()
        draws = []
        sample = sim.execution_model.sample

        def counted(task, eet, rng):
            draws.append(task.id)
            return sample(task, eet, rng)

        sim.execution_model.sample = counted
        return sim.run(), draws

    def test_summary_exact(self, run):
        _assert_exact(run[0].summary.as_dict(), GOLDEN_NOISY_NETWORK_MM)

    def test_event_count_and_end_time_exact(self, run):
        result, _ = run
        assert result.events_processed == GOLDEN_NOISY_NETWORK_EVENTS
        assert result.end_time == GOLDEN_NOISY_NETWORK_END_TIME

    def test_one_runtime_draw_per_started_task(self, run):
        result, draws = run
        started = sorted(
            row["task_id"]
            for row in result.task_records
            if row["start_time"] is not None
        )
        assert sorted(draws) == started
