"""Federated scenario presets: registration, overrides, and run sanity."""

import pytest

from repro.core.errors import ConfigurationError
from repro.scenarios import available_scenarios, build_scenario

FEDERATED_PRESETS = [
    "edge_cloud",
    "geo_3site",
    "fed_heavytail",
    "fed_congested",
    "fed_rebalance",
]


class TestRegistration:
    def test_presets_registered(self):
        names = available_scenarios()
        for name in FEDERATED_PRESETS:
            assert name in names

    def test_factories_build_federated_scenarios(self):
        for name in FEDERATED_PRESETS:
            scenario = build_scenario(name)
            assert scenario.federation is not None
            assert len(scenario.federation.clusters) >= 2
            totals = scenario.federation.total_machine_counts()
            declared = {
                k: v for k, v in dict(scenario.machine_counts).items() if v > 0
            }
            assert totals == declared


class TestOverrides:
    def test_gateway_override(self):
        scenario = build_scenario("edge_cloud", gateway="LOCALITY_FIRST")
        assert scenario.federation.gateway == "LOCALITY_FIRST"

    def test_scheduler_override_applies_to_all_clusters(self):
        scenario = build_scenario("geo_3site", scheduler="MM")
        assert scenario.scheduler == "MM"
        simulator = scenario.build_simulator()
        assert all(
            shard.scheduler.name == "MM" for shard in simulator.shards
        )

    @pytest.mark.parametrize(
        "preset,gateway,params",
        [
            ("fed_rebalance", "LOCALITY_FIRST", {"threshold": 16.0}),
            ("fed_rebalance", "Locality-First", {"threshold": 16.0}),
            ("fed_rebalance", "locality", {"threshold": 16.0}),
            ("fed_adaptive", "LOCALITY", {"threshold": 16.0}),
            ("fed_adaptive", "bandit", {"strategy": "ucb", "ucb_c": 1.0}),
            ("fed_adaptive", "EET_AWARE_REMOTE", {}),
        ],
    )
    def test_gateway_defaults_follow_registry_aliases(self, preset, gateway, params):
        # Any spelling the gateway registry resolves gets the preset's defaults.
        scenario = build_scenario(preset, gateway=gateway)
        assert scenario.federation.gateway == gateway
        assert scenario.federation.gateway_params == params

    def test_with_gateway_copy(self):
        scenario = build_scenario("edge_cloud")
        swapped = scenario.with_gateway("RANDOM_SPLIT", weights=[0.5, 0.5])
        assert swapped.federation.gateway == "RANDOM_SPLIT"
        assert swapped.federation.gateway_params == {
            "weights": [0.5, 0.5]
        }
        # Original untouched.
        assert scenario.federation.gateway == "EET_AWARE_REMOTE"

    def test_with_gateway_requires_federation(self):
        scenario = build_scenario("satellite_imaging")
        with pytest.raises(ConfigurationError):
            scenario.with_gateway("LEAST_LOADED")

    def test_partition_mismatch_rejected(self):
        import dataclasses

        scenario = build_scenario("edge_cloud")
        with pytest.raises(ConfigurationError):
            dataclasses.replace(
                scenario,
                machine_counts={"edge_cpu": 1, "cloud_cpu": 4, "cloud_gpu": 2},
            )


class TestRuns:
    @pytest.mark.parametrize("name", FEDERATED_PRESETS)
    def test_preset_runs_and_conserves(self, name):
        result = build_scenario(name, duration=120.0).run()
        summary = result.summary
        assert summary.total_tasks > 0
        assert (
            summary.completed + summary.cancelled + summary.missed
            == summary.total_tasks
        )
        assert 0.0 <= result.offload_rate <= 1.0
        assert set(result.per_cluster) == set(result.routing)

    def test_edge_cloud_arrivals_originate_at_the_edge(self):
        result = build_scenario("edge_cloud", duration=120.0).run()
        origins = {src: sum(row.values()) for src, row in result.routing.items()}
        assert origins["cloud"] == 0
        assert origins["edge"] == result.summary.total_tasks

    def test_json_round_trip_preserves_federation(self):
        scenario = build_scenario("edge_cloud")
        from repro.core.config import Scenario

        rebuilt = Scenario.from_json(scenario.to_json())
        assert rebuilt.federation is not None
        assert rebuilt.federation.to_dict() == scenario.federation.to_dict()
        # And the rebuilt scenario still runs federated.
        result = rebuilt.run()
        assert hasattr(result, "per_cluster")

    def test_gateway_choice_changes_outcomes(self):
        locality = build_scenario(
            "edge_cloud", gateway="LOCALITY_FIRST", duration=150.0
        ).run()
        eet_aware = build_scenario(
            "edge_cloud", gateway="EET_AWARE_REMOTE", duration=150.0
        ).run()
        assert locality.routing != eet_aware.routing
