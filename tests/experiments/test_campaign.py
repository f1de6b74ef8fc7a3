"""Campaign specs: grid expansion, seed derivation, dict/JSON round-trip."""

import pytest

from repro.core.errors import (
    ConfigurationError,
    UnknownScenarioError,
    UnknownSchedulerError,
)
from repro.experiments import CampaignSpec, ScenarioRef


@pytest.fixture
def spec():
    return CampaignSpec(
        name="unit",
        scenarios=[
            "classroom_homogeneous",
            {"name": "edge_ai", "overrides": {"duration": 60.0}},
        ],
        schedulers=["FCFS", "MECT"],
        seeds=[1, 2, 3],
        seed=42,
    )


class TestSpec:
    def test_grid_size(self, spec):
        assert spec.n_runs == 2 * 2 * 3
        assert len(spec.cells()) == 12

    def test_cells_are_scenario_major_and_deterministic(self, spec):
        cells = spec.cells()
        assert [c.key() for c in cells] == [c.key() for c in spec.cells()]
        assert cells[0].label == "classroom_homogeneous"
        assert cells[-1].label == "edge_ai"

    def test_same_workload_seed_across_schedulers(self, spec):
        """Paired comparisons: the scheduler must not perturb the run seed."""
        by_key = {c.key(): c for c in spec.cells()}
        for label in ("classroom_homogeneous", "edge_ai"):
            for seed in (1, 2, 3):
                assert (
                    by_key[(label, "FCFS", seed)].run_seed
                    == by_key[(label, "MECT", seed)].run_seed
                )

    def test_run_seeds_differ_across_scenarios_and_seeds(self, spec):
        seeds = {c.run_seed for c in spec.cells()}
        assert len(seeds) == 2 * 3  # one per (scenario, grid seed) pair

    def test_campaign_seed_changes_run_seeds(self, spec):
        other = CampaignSpec.from_dict({**spec.to_dict(), "seed": 43})
        assert [c.run_seed for c in other.cells()] != [
            c.run_seed for c in spec.cells()
        ]

    def test_scenario_ref_coercion(self):
        ref = ScenarioRef.coerce("edge_ai")
        assert ref.name == "edge_ai" and ref.effective_label == "edge_ai"
        ref = ScenarioRef.coerce(
            {"name": "edge_ai", "overrides": {"duration": 9.0}, "label": "ea"}
        )
        assert ref.effective_label == "ea"
        assert ScenarioRef.coerce(ref) is ref

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            CampaignSpec(
                scenarios=["edge_ai", {"name": "edge_ai"}],
                schedulers=["FCFS"],
            )

    def test_distinct_labels_allow_same_preset_twice(self):
        spec = CampaignSpec(
            scenarios=[
                {"name": "edge_ai", "label": "ea_low",
                 "overrides": {"intensity": "low"}},
                {"name": "edge_ai", "label": "ea_high",
                 "overrides": {"intensity": "high"}},
            ],
            schedulers=["FCFS"],
        )
        assert [r.effective_label for r in spec.scenarios] == [
            "ea_low", "ea_high"
        ]

    def test_unknown_scenario_rejected(self):
        with pytest.raises(UnknownScenarioError):
            CampaignSpec(scenarios=["no_such"], schedulers=["FCFS"])

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(UnknownSchedulerError):
            CampaignSpec(scenarios=["edge_ai"], schedulers=["NOPE"])

    def test_empty_axes_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(scenarios=[], schedulers=["FCFS"])
        with pytest.raises(ConfigurationError):
            CampaignSpec(scenarios=["edge_ai"], schedulers=[])
        with pytest.raises(ConfigurationError):
            CampaignSpec(scenarios=["edge_ai"], schedulers=["FCFS"], seeds=[])

    def test_scheduler_params_for_missing_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="scheduler_params"):
            CampaignSpec(
                scenarios=["edge_ai"],
                schedulers=["FCFS"],
                scheduler_params={"KPB": {"k": 50}},
            )


class TestRoundTrip:
    def test_dict_round_trip_preserves_cells(self, spec):
        clone = CampaignSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()
        assert clone.cells() == spec.cells()

    def test_json_file_round_trip(self, spec, tmp_path):
        path = tmp_path / "campaign.json"
        spec.to_json(path)
        clone = CampaignSpec.from_json(path)
        assert clone.cells() == spec.cells()

    def test_json_string_round_trip(self, spec):
        clone = CampaignSpec.from_json(spec.to_json())
        assert clone.cells() == spec.cells()

    def test_missing_required_key_is_a_config_error(self):
        with pytest.raises(ConfigurationError, match="schedulers"):
            CampaignSpec.from_dict({"scenarios": ["edge_ai"]})

    def test_scenario_ref_without_name_is_a_config_error(self):
        with pytest.raises(ConfigurationError, match="needs a 'name'"):
            CampaignSpec.from_dict(
                {"scenarios": [{"overrides": {}}], "schedulers": ["FCFS"]}
            )

    def test_non_integer_seeds_are_a_config_error(self):
        with pytest.raises(ConfigurationError, match="integers"):
            CampaignSpec.from_dict(
                {
                    "scenarios": ["edge_ai"],
                    "schedulers": ["FCFS"],
                    "seeds": ["x"],
                }
            )

    def test_non_json_spec_is_a_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json{", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            CampaignSpec.from_json(path)
        with pytest.raises(ConfigurationError, match="cannot read"):
            CampaignSpec.from_json(tmp_path / "missing.json")

    def test_non_object_spec_json_is_a_config_error(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="JSON object"):
            CampaignSpec.from_json(path)

    def test_negative_seeds_rejected(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            CampaignSpec(
                scenarios=["edge_ai"], schedulers=["FCFS"], seeds=[-1]
            )
        with pytest.raises(ConfigurationError, match="non-negative"):
            CampaignSpec(
                scenarios=["edge_ai"], schedulers=["FCFS"], seed=-5
            )

    def test_override_typo_rejected_up_front(self):
        with pytest.raises(ConfigurationError, match="invalid overrides"):
            CampaignSpec(
                scenarios=[{"name": "edge_ai", "overrides": {"duratoin": 9}}],
                schedulers=["FCFS"],
            )

    def test_scheduler_names_canonicalised(self):
        spec = CampaignSpec(
            scenarios=["edge_ai"],
            schedulers=["fcfs", "mect"],
            scheduler_params={"mect": {}},
        )
        assert spec.schedulers == ["FCFS", "MECT"]
        assert set(spec.scheduler_params) == {"MECT"}


class TestCampaignFromDictRejects:
    """The campaign twin of ``TestFromDictRejects``: one bad field, typed."""

    @pytest.mark.parametrize(
        "field,value,named",
        [
            ("seeds", [1.5], r"seeds\[0\]"),
            ("seeds", ["1"], r"seeds\[0\]"),
            ("seeds", [True], r"seeds\[0\]"),
            ("schedulers", "MM", r"campaign\.schedulers must be a JSON array"),
            ("scheduler_params", {"FCFS": [1]}, r"scheduler_params\['FCFS'\]"),
            ("colour", "blue", r"unknown keys \['colour'\]"),
            # A metric name is checked at load, not when the report renders
            # after every cell has run; only numeric summary fields qualify.
            ("metrics", ["bogus"], r"campaign\.metrics\[0\] is not a summary"),
            (
                "metrics",
                ["completion_rate", "completion_rate_by_type"],
                r"campaign\.metrics\[1\] is not a summary",
            ),
        ],
    )
    def test_malformed_field(self, field, value, named):
        data = {"scenarios": ["edge_ai"], "schedulers": ["FCFS"], "seeds": [0]}
        data[field] = value
        with pytest.raises(ConfigurationError, match=named):
            CampaignSpec.from_dict(data)
