"""Service façade: spec-form equivalence, exact reconstruction, errors."""

import json

import pytest

from repro.core.errors import ConfigurationError, ServiceError, UnknownJobError
from repro.experiments import CampaignSpec, run_campaign
from repro.scenarios import build_scenario
from repro.service import CampaignService, JobState, request_key

PRESET_REF = {"preset": "classroom_homogeneous", "overrides": {"duration": 50.0}}
CAMPAIGN = {
    "name": "svc-api",
    "scenarios": [
        {"name": "classroom_homogeneous", "overrides": {"duration": 40.0}}
    ],
    "schedulers": ["FCFS", "MECT"],
    "seeds": [1, 2],
}


class TestSpecFormEquivalence:
    def test_preset_ref_and_expanded_dict_share_a_key(self, tmp_path):
        expanded = build_scenario(
            "classroom_homogeneous", duration=50.0
        ).to_dict()
        with CampaignService(tmp_path, workers=1) as service:
            first = service.submit(PRESET_REF)
            service.wait(first.job_id, timeout=60)
            second = service.submit(expanded)
            assert second.key == first.key
            assert second.cached
            assert service.queue.executions == 1

    def test_dict_json_string_and_file_share_a_key(self, tmp_path):
        as_dict = dict(PRESET_REF)
        as_string = json.dumps(PRESET_REF)
        as_file = tmp_path / "spec.json"
        as_file.write_text(as_string, encoding="utf-8")
        with CampaignService(tmp_path / "svc", workers=1) as service:
            receipts = [
                service.submit(as_dict),
                service.submit(as_string),
                service.submit(as_file),
            ]
            assert len({r.job_id for r in receipts}) == 1
            assert len({r.key for r in receipts}) == 1
            job = service.wait(receipts[0].job_id, timeout=60)
            assert job.state is JobState.DONE
            assert service.queue.executions == 1

    def test_renamed_scenario_hits_the_same_cache_entry(self, tmp_path):
        base = build_scenario("classroom_homogeneous", duration=50.0).to_dict()
        renamed = dict(base, name="totally-different-display-name")
        _, _, key_a = request_key(base)
        _, _, key_b = request_key(renamed)
        assert key_a == key_b

    def test_receipt_reports_kind(self, tmp_path):
        with CampaignService(tmp_path, workers=1) as service:
            scen = service.submit(PRESET_REF)
            camp = service.submit(dict(CAMPAIGN))
            assert scen.kind == "scenario"
            assert camp.kind == "campaign"
            service.wait(camp.job_id, timeout=120)


class TestExactReconstruction:
    def test_summary_equals_in_process_run(self, tmp_path):
        direct = build_scenario(
            "classroom_homogeneous", duration=50.0
        ).run().summary
        with CampaignService(tmp_path, workers=1) as service:
            receipt = service.submit(PRESET_REF)
            service.wait(receipt.job_id, timeout=60)
            assert service.summary(receipt.job_id) == direct

    def test_campaign_csv_byte_equals_run_campaign(self, tmp_path):
        direct = run_campaign(CampaignSpec.from_dict(CAMPAIGN))
        with CampaignService(tmp_path, workers=1) as service:
            receipt = service.submit(dict(CAMPAIGN))
            job = service.wait(receipt.job_id, timeout=120)
            assert job.state is JobState.DONE
            payload = service.result(receipt.job_id)
            assert payload["csv"] == direct.to_csv()
            assert payload["n_runs"] == 4


class TestErrors:
    def test_unknown_job_everywhere(self, tmp_path):
        with CampaignService(tmp_path, workers=1) as service:
            for method in (service.status, service.result, service.cancel,
                           service.wait):
                with pytest.raises(UnknownJobError):
                    method("job-424242")

    def test_result_before_done(self, tmp_path):
        hang_spec = {"preset": "classroom_homogeneous",
                     "overrides": {"duration": 3600.0}}
        with CampaignService(tmp_path, workers=1) as service:
            receipt = service.submit(hang_spec)
            with pytest.raises(ServiceError, match="no result"):
                service.result(receipt.job_id)
            service.cancel(receipt.job_id)

    def test_summary_rejects_campaign_jobs(self, tmp_path):
        with CampaignService(tmp_path, workers=1) as service:
            receipt = service.submit(dict(CAMPAIGN))
            service.wait(receipt.job_id, timeout=120)
            with pytest.raises(ServiceError, match="campaign"):
                service.summary(receipt.job_id)

    def test_unclassifiable_submission(self, tmp_path):
        with CampaignService(tmp_path, workers=1) as service:
            with pytest.raises(ServiceError, match="cannot classify"):
                service.submit({"frobnicate": True})

    def test_unknown_preset_key(self, tmp_path):
        with CampaignService(tmp_path, workers=1) as service:
            with pytest.raises(ServiceError, match="unknown key"):
                service.submit({"preset": "classroom_homogeneous",
                                "override": {"duration": 1.0}})

    @pytest.mark.parametrize(
        "overrides,match",
        [
            ({"duration": "abc"}, "generator.duration must be a finite number"),
            ({"duration": -5}, "generator.duration must be > 0"),
            ({"intensity": "extreme"}, "unknown intensity level"),
            ({"intensity": 1e9}, "expects about 1.16e\\+11 tasks"),
            ({"scheduler": "NOPE"}, "scheduler: unknown scheduler 'NOPE'"),
        ],
        ids=[
            "duration-text", "duration-negative", "intensity-unknown",
            "intensity-huge", "scheduler-unknown",
        ],
    )
    def test_bad_preset_overrides_get_no_key(self, overrides, match):
        with pytest.raises(ConfigurationError, match=match):
            request_key({"preset": "classroom_homogeneous", "overrides": overrides})

    def test_preset_scheduler_params_override_gets_no_key(self):
        with pytest.raises(ServiceError, match="does not accept these overrides"):
            request_key({
                "preset": "classroom_homogeneous",
                "overrides": {"scheduler_params": {"bogus": 1}},
            })

    @pytest.mark.parametrize(
        "preset,overrides,match",
        [
            ("edge_cloud", {"gateway": "bogus"},
             r"federation\.gateway: unknown gateway policy 'bogus'"),
            ("fed_rebalance", {"gateway": "bogus"},
             r"federation\.gateway: unknown gateway policy 'bogus'"),
            ("fed_adaptive", {"gateway": "bogus"},
             r"federation\.gateway: unknown gateway policy 'bogus'"),
            ("edge_cloud", {"gateway_params": {"bogus": 1}},
             r"federation\.gateway_params: bad parameters"),
            ("fed_rebalance", {"migration": "NOPE"},
             r"federation\.migration\.policy: unknown eviction policy 'NOPE'"),
            ("fed_rebalance",
             {"migration": {"policy": "LONGEST_WAIT", "policy_params": {"bogus": 2}}},
             r"federation\.migration\.policy_params: bad parameters"),
            ("hier_3region", {"gateway": "LEAST_LOADED"},
             r"federation\.gateway: gateway 'LEAST_LOADED' does not support"),
        ],
        ids=[
            "gateway-unknown", "gateway-unknown-access-relief",
            "gateway-unknown-adaptive", "gateway-params", "eviction-unknown",
            "eviction-params", "flat-gateway-on-tree",
        ],
    )
    def test_bad_federation_policy_override_gets_no_key(self, preset, overrides, match):
        with pytest.raises(ConfigurationError, match=match):
            request_key({"preset": preset, "overrides": overrides})

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("scheduler", "NOPE", "scheduler: unknown scheduler 'NOPE'"),
            ("scheduler_params", {"bogus": 1}, "scheduler: bad parameters"),
        ],
    )
    def test_bad_scheduler_in_a_document_gets_no_key(self, field, value, match):
        document = build_scenario("classroom_homogeneous").to_dict()
        document[field] = value
        with pytest.raises(ConfigurationError, match=match):
            request_key(document)
