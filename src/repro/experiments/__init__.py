"""Experiment campaigns: declarative policy sweeps over scenario grids.

The subsystem behind ``e2c-sim sweep``. A campaign is the cartesian product
of registered scenarios × scheduling policies × seeds; this package expands
it, fans it out over worker processes, and aggregates the per-run summaries
into a tidy table plus a cross-policy comparison report::

    from repro.experiments import CampaignSpec, run_campaign

    spec = CampaignSpec(
        scenarios=["satellite_imaging", "edge_ai"],
        schedulers=["FCFS", "MECT", "MM"],
        seeds=[1, 2, 3],
        seed=42,
    )
    result = run_campaign(spec)
    print(result.to_text())
    result.to_csv("campaign.csv")

Determinism contract: given the same spec (including the campaign ``seed``),
the aggregated table is byte-identical across serial and parallel execution
and across any worker count.

:mod:`.tournament` builds on campaigns: it expands every gateway × eviction
policy pairing over a preset grid into one campaign and distils the result
into a ranked, canonically-rendered leaderboard (``e2c-sim tournament``).
"""

from .campaign import DEFAULT_METRICS, CampaignSpec, RunSpec, ScenarioRef
from .runner import (
    CampaignResult,
    CampaignRunner,
    RunRecord,
    execute_campaign,
    result_extras,
    run_campaign,
)
from .tournament import (
    TournamentResult,
    TournamentSpec,
    build_leaderboard,
    leaderboard_json,
    leaderboard_text,
    run_tournament,
    tournament_campaign,
)

__all__ = [
    "CampaignSpec",
    "ScenarioRef",
    "RunSpec",
    "DEFAULT_METRICS",
    "CampaignRunner",
    "CampaignResult",
    "RunRecord",
    "run_campaign",
    "execute_campaign",
    "result_extras",
    "TournamentSpec",
    "TournamentResult",
    "tournament_campaign",
    "run_tournament",
    "build_leaderboard",
    "leaderboard_json",
    "leaderboard_text",
]
