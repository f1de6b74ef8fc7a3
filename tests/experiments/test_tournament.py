"""Tournament harness: expansion, leaderboard shape, byte-determinism.

The leaderboard is a regression surface: CI archives ``leaderboard.json``
and the same spec must reproduce it byte-for-byte whatever the worker
count — and through the campaign service's result cache, since a cached
tournament must rank exactly like a cold one. These tests pin all three
paths against each other, plus the per-cell seed derivation one drifted
hash away from silently re-seeding every run.
"""

import csv
import io
import json

import pytest

from repro.core.errors import ConfigurationError
from repro.core.rng import derive_seed
from repro.experiments import (
    TournamentSpec,
    build_leaderboard,
    leaderboard_json,
    leaderboard_text,
    run_tournament,
    tournament_campaign,
)
from repro.service import CampaignService

#: Small enough to run three times in one test session, rich enough to
#: exercise grouping (2 gateways) and ranking.
SMALL = TournamentSpec(
    presets=("fed_rebalance",),
    gateways=("LEAST_LOADED", "LOCALITY_FIRST"),
    evictions=("LONGEST_WAIT",),
    repetitions=1,
    seed=7,
)


class TestSpecAndExpansion:
    def test_grid_expands_to_one_cell_per_pairing(self):
        campaign = tournament_campaign(SMALL)
        labels = [ref.effective_label for ref in campaign.scenarios]
        assert labels == [
            "fed_rebalance|LEAST_LOADED|LONGEST_WAIT",
            "fed_rebalance|LOCALITY_FIRST|LONGEST_WAIT",
        ]
        assert campaign.schedulers == ["MM"]
        assert campaign.seeds == [0]
        for ref in campaign.scenarios:
            assert ref.overrides["gateway"] in SMALL.gateways
            assert ref.overrides["migration"] in SMALL.evictions

    def test_empty_axes_resolve_to_every_registered_policy(self):
        from repro.scheduling.federation import (
            available_evictions,
            available_gateways,
        )

        spec = TournamentSpec(presets=("fed_rebalance",))
        assert spec.resolved_gateways() == tuple(available_gateways())
        assert spec.resolved_evictions() == tuple(available_evictions())
        campaign = tournament_campaign(spec)
        assert len(campaign.scenarios) == len(
            available_gateways()
        ) * len(available_evictions())

    def test_per_cell_seed_derivation_pinned(self):
        # One cell's run seed pinned to its literal value: any drift in the
        # label scheme or the derivation chain re-seeds every tournament.
        cells = list(tournament_campaign(SMALL).cells())
        label = "fed_rebalance|LEAST_LOADED|LONGEST_WAIT"
        assert cells[0].label == label
        assert cells[0].run_seed == derive_seed(7, "campaign", label, 0)
        assert cells[0].run_seed == 4144924766
        assert cells[1].run_seed == 2967575429

    def test_campaign_dict_round_trips(self):
        from repro.experiments import CampaignSpec

        campaign = tournament_campaign(SMALL)
        clone = CampaignSpec.from_dict(campaign.to_dict())
        assert [c.run_seed for c in clone.cells()] == [
            c.run_seed for c in campaign.cells()
        ]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TournamentSpec(presets=())
        with pytest.raises(ConfigurationError):
            TournamentSpec(repetitions=0)
        with pytest.raises(ConfigurationError):
            TournamentSpec(seed=-1)
        with pytest.raises(ConfigurationError):
            TournamentSpec(presets=("bad|name",))

    @pytest.mark.parametrize(
        "kwargs,named",
        [
            ({"repetitions": "3"}, "repetitions"),
            ({"presets": [1]}, r"presets\[0\]"),
            ({"seed": None}, "seed"),
            ({"presets": "fed_rebalance"}, "presets must be a JSON array"),
            ({"scheduler": 5}, "scheduler"),
            ({"gateways": ("LEAST_LOADED", None)}, r"gateways\[1\]"),
        ],
    )
    def test_malformed_field_fails_typed(self, kwargs, named):
        with pytest.raises(ConfigurationError, match=named):
            TournamentSpec(**kwargs)

    def test_integral_repetitions_normalised(self):
        spec = TournamentSpec(presets=["fed_rebalance"], repetitions=2.0)
        assert spec.presets == ("fed_rebalance",)
        assert type(spec.repetitions) is int and spec.repetitions == 2


class TestLeaderboardDeterminism:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_tournament(SMALL, parallel=False)

    def test_byte_identical_across_worker_counts(self, serial):
        two = run_tournament(SMALL, workers=2)
        eight = run_tournament(SMALL, workers=8)
        assert serial.to_json() == two.to_json() == eight.to_json()
        assert (
            serial.campaign.to_csv()
            == two.campaign.to_csv()
            == eight.campaign.to_csv()
        )

    def test_leaderboard_structure(self, serial):
        board = serial.leaderboard
        assert board["kind"] == "tournament-leaderboard"
        assert board["grid"]["presets"] == ["fed_rebalance"]
        entries = board["entries"]
        assert [e["rank"] for e in entries] == [1, 2]
        assert {(e["gateway"], e["eviction"]) for e in entries} == {
            ("LEAST_LOADED", "LONGEST_WAIT"),
            ("LOCALITY_FIRST", "LONGEST_WAIT"),
        }
        rates = [e["completion_rate"] for e in entries]
        assert rates == sorted(rates, reverse=True)
        for entry in entries:
            assert entry["cells"] == 1

    def test_json_renders_canonically(self, serial):
        text = serial.to_json()
        assert text.endswith("\n")
        assert json.loads(text) == serial.leaderboard
        assert text == leaderboard_json(serial.leaderboard)

    def test_text_report_lists_every_pairing(self, serial):
        report = leaderboard_text(serial.leaderboard)
        assert report == serial.to_text()
        assert "LEAST_LOADED" in report
        assert "LOCALITY_FIRST" in report
        assert report.splitlines()[0].startswith("rank")

    def test_rows_from_csv_rebuild_the_identical_board(self, serial):
        # The service cache stores the campaign CSV; rebuilding the board
        # from it must reproduce the leaderboard bytes exactly (repr floats
        # round-trip through text).
        rows = list(csv.DictReader(io.StringIO(serial.campaign.to_csv())))
        rebuilt = build_leaderboard(SMALL, rows)
        assert leaderboard_json(rebuilt) == serial.to_json()


class TestTournamentThroughTheService:
    def test_cache_hit_matches_cold_run(self, tmp_path):
        """A cached tournament ranks byte-for-byte like a cold one."""
        submission = tournament_campaign(SMALL).to_dict()
        with CampaignService(tmp_path, workers=2) as service:
            cold = service.submit(dict(submission))
            service.wait(cold.job_id, timeout=300)
            cold_payload = service.result(cold.job_id)
            hit = service.submit(dict(submission))
            assert hit.cached
            hit_payload = service.result(hit.job_id)
        assert cold_payload["kind"] == "campaign"
        assert cold_payload["csv"] == hit_payload["csv"]
        cold_board = build_leaderboard(
            SMALL, list(csv.DictReader(io.StringIO(cold_payload["csv"])))
        )
        hit_board = build_leaderboard(
            SMALL, list(csv.DictReader(io.StringIO(hit_payload["csv"])))
        )
        assert leaderboard_json(cold_board) == leaderboard_json(hit_board)
        # ... and both match running the tournament in-process.
        direct = run_tournament(SMALL, parallel=False)
        assert leaderboard_json(cold_board) == direct.to_json()
