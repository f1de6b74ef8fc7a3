"""Canned scenarios: they build, run, and show their intended contrasts."""

from collections import Counter

import pytest

from repro.scenarios import classroom_homogeneous, edge_ai, satellite_imaging


class TestSatelliteImaging:
    def test_builds_and_runs(self):
        result = satellite_imaging(duration=150.0).run()
        assert result.summary.total_tasks > 0
        assert result.summary.completion_rate > 0.5

    def test_machine_population(self):
        cluster = satellite_imaging().build_cluster()
        assert Counter(m.machine_type.name for m in cluster) == {
            "CPU": 2, "GPU": 1, "FPGA": 1
        }

    def test_gpu_affinity_of_object_detection(self):
        eet = satellite_imaging().eet
        row = eet.row("object_detection")
        assert eet.machine_type_names[int(row.argmin())] == "GPU"

    def test_energy_positive(self):
        result = satellite_imaging(duration=150.0).run()
        assert result.summary.total_energy > 0

    def test_scheduler_swap(self):
        fcfs = satellite_imaging(
            scheduler="FCFS", intensity="high", duration=200.0
        ).run()
        mect = satellite_imaging(
            scheduler="MECT", intensity="high", duration=200.0
        ).run()
        assert mect.summary.completion_rate >= fcfs.summary.completion_rate


class TestEdgeAI:
    def test_builds_and_runs(self):
        result = edge_ai(duration=150.0).run()
        assert result.summary.total_tasks > 0

    def test_memory_capacities_wired(self):
        cluster = edge_ai().build_cluster()
        assert all(m.machine_type.memory_capacity > 0 for m in cluster)

    def test_network_variant(self):
        result = edge_ai(duration=100.0, with_network=True).run()
        assert result.summary.total_tasks > 0

    def test_asic_power_override(self):
        scenario = edge_ai()
        asic = scenario.power_profiles["ASIC"]
        assert asic.active_watts("face_recognition") < asic.active_watts(
            "object_detection"
        )

    def test_felare_fairness_at_least_minmin(self):
        felare = edge_ai(scheduler="FELARE", duration=250.0).run()
        mm = edge_ai(scheduler="MM", duration=250.0).run()
        # Fairness pressure should not *hurt* Jain's index materially.
        assert felare.summary.fairness_index >= mm.summary.fairness_index - 0.1


class TestClassroomHomogeneous:
    def test_eet_homogeneous(self):
        assert classroom_homogeneous().eet.is_homogeneous()

    def test_four_machines(self):
        assert len(classroom_homogeneous().build_cluster()) == 4

    def test_runs(self):
        result = classroom_homogeneous(duration=200.0).run()
        assert result.summary.total_tasks > 0


class TestRegistry:
    def test_stock_presets_registered(self):
        from repro.scenarios import available_scenarios

        assert {
            "classroom_homogeneous", "edge_ai", "satellite_imaging"
        } <= set(available_scenarios())

    def test_build_scenario_forwards_overrides(self):
        from repro.scenarios import build_scenario

        scenario = build_scenario("edge_ai", duration=42.0, scheduler="MM")
        assert scenario.generator["duration"] == 42.0
        assert scenario.scheduler == "MM"

    def test_lookup_is_case_insensitive(self):
        from repro.scenarios import scenario_factory

        assert scenario_factory("Edge_AI") is scenario_factory("edge_ai")

    def test_unknown_name_raises(self):
        from repro.core.errors import UnknownScenarioError
        from repro.scenarios import build_scenario

        with pytest.raises(UnknownScenarioError):
            build_scenario("does_not_exist")

    def test_register_custom_scenario(self):
        from repro.core.errors import ConfigurationError
        from repro.scenarios import (
            build_scenario,
            register_scenario,
        )
        from repro.scenarios import registry as registry_module

        @register_scenario("test_custom_preset")
        def tiny(*, scheduler="FCFS", seed=0):
            return classroom_homogeneous(
                scheduler=scheduler, duration=50.0, seed=seed
            )

        try:
            scenario = build_scenario("test_custom_preset", scheduler="MECT")
            assert scenario.scheduler == "MECT"
            # collisions are rejected unless explicitly overwritten
            with pytest.raises(ConfigurationError, match="already registered"):
                register_scenario("test_custom_preset")(lambda: None)
            register_scenario("test_custom_preset", overwrite=True)(tiny)
        finally:
            registry_module._REGISTRY.pop("test_custom_preset", None)

    def test_custom_scenario_sweepable_in_campaign(self):
        from repro.experiments import CampaignSpec, run_campaign
        from repro.scenarios import register_scenario
        from repro.scenarios import registry as registry_module

        @register_scenario("test_sweep_preset")
        def tiny(*, scheduler="FCFS", seed=0):
            return classroom_homogeneous(
                scheduler=scheduler, duration=40.0, seed=seed
            )

        try:
            spec = CampaignSpec(
                scenarios=["test_sweep_preset"],
                schedulers=["FCFS"],
                seeds=[1, 2],
            )
            # parallel: the runner pins the fork start method where the
            # platform has it, so the runtime-registered preset must reach
            # the worker processes too
            result = run_campaign(spec, workers=2)
            assert len(result.records) == 2
        finally:
            registry_module._REGISTRY.pop("test_sweep_preset", None)
