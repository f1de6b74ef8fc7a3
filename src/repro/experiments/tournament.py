"""Policy tournaments: every gateway × eviction policy, ranked on a grid.

The paper positions the simulator as a laboratory for comparing scheduling
policies; the federation layer doubles the policy surface (gateway routing
× mid-queue eviction). A :class:`TournamentSpec` names a preset grid and
expands every registered (or explicitly listed) gateway × eviction
combination into one :class:`~.campaign.CampaignSpec` scenario cell per
preset — so the whole tournament *is* a campaign: it fans out over the
multiprocessing runner, derives per-repetition seeds through
:func:`repro.core.rng.derive_seed`, and is cacheable as-is by the campaign
service (its dict form is an ordinary campaign submission).

The result is distilled into a **leaderboard**: per (gateway, eviction)
pair, metric means over every (preset, repetition) cell, ranked by
completion rate. :func:`leaderboard_json` renders it canonically (sorted
keys, ``repr``-precision floats), so the same tournament produces
byte-identical ``leaderboard.json`` files whatever the worker count — the
regression surface CI's tournament job and the determinism suite pin.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..core.errors import ConfigurationError
from ..core.fields import array, integer, text
from ..scheduling.federation import available_evictions, available_gateways
from .campaign import CampaignSpec, ScenarioRef
from .runner import CampaignResult, run_campaign

__all__ = [
    "TournamentSpec",
    "TournamentResult",
    "tournament_campaign",
    "run_tournament",
    "build_leaderboard",
    "leaderboard_json",
    "leaderboard_text",
]

#: Separator of the ``preset|gateway|eviction`` scenario labels.
LABEL_SEPARATOR = "|"

#: Presets a bare TournamentSpec competes on: both accept the ``gateway``
#: and ``migration`` override knobs the tournament sweeps.
DEFAULT_PRESETS = ("fed_rebalance", "fed_adaptive")

#: Metrics the leaderboard aggregates (means over all cells of a pair).
LEADERBOARD_METRICS = (
    "completion_rate",
    "mean_response_time",
    "total_energy",
)


@dataclass(frozen=True)
class TournamentSpec:
    """One policy tournament: preset grid × gateways × evictions × seeds.

    Empty ``gateways``/``evictions`` mean *every registered policy* —
    resolved at expansion time, so plug-in policies registered before the
    run compete automatically. ``repetitions`` is the seed-axis length;
    per-cell scenario seeds derive from ``seed`` exactly like any campaign.
    """

    presets: tuple[str, ...] = DEFAULT_PRESETS
    gateways: tuple[str, ...] = ()
    evictions: tuple[str, ...] = ()
    scheduler: str = "MM"
    repetitions: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        for axis in ("presets", "gateways", "evictions"):
            names = array(getattr(self, axis), axis)
            object.__setattr__(
                self,
                axis,
                tuple(text(name, f"{axis}[{i}]") for i, name in enumerate(names)),
            )
        text(self.scheduler, "scheduler")
        object.__setattr__(
            self, "repetitions", integer(self.repetitions, "repetitions", lo=1)
        )
        object.__setattr__(self, "seed", integer(self.seed, "seed"))
        if not self.presets:
            raise ConfigurationError("tournament needs at least one preset")
        for preset in self.presets:
            if LABEL_SEPARATOR in preset:
                raise ConfigurationError(
                    f"preset name {preset!r} must not contain "
                    f"{LABEL_SEPARATOR!r} (the tournament label separator)"
                )

    def resolved_gateways(self) -> tuple[str, ...]:
        """The gateway axis; empty spec → every registered gateway."""
        return self.gateways or tuple(available_gateways())

    def resolved_evictions(self) -> tuple[str, ...]:
        """The eviction axis; empty spec → every registered eviction."""
        return self.evictions or tuple(available_evictions())

    def grid(self) -> dict[str, Any]:
        """The fully-resolved grid (the leaderboard's provenance block)."""
        return {
            "presets": list(self.presets),
            "gateways": list(self.resolved_gateways()),
            "evictions": list(self.resolved_evictions()),
            "scheduler": self.scheduler,
            "repetitions": self.repetitions,
            "seed": self.seed,
        }


def tournament_campaign(spec: TournamentSpec) -> CampaignSpec:
    """Expand a tournament into the campaign that runs it.

    One scenario ref per (preset, gateway, eviction) — labelled
    ``preset|gateway|eviction`` so the leaderboard can re-group rows — a
    single local-scheduler axis entry, and the repetition range as the
    seed axis. The returned spec is an ordinary campaign: it sweeps on the
    multiprocessing runner and its ``to_dict()`` form submits to the
    campaign service (and hits its result cache) unchanged.
    """
    scenarios = [
        ScenarioRef(
            name=preset,
            overrides={"gateway": gateway, "migration": eviction},
            label=LABEL_SEPARATOR.join((preset, gateway, eviction)),
        )
        for preset in spec.presets
        for gateway in spec.resolved_gateways()
        for eviction in spec.resolved_evictions()
    ]
    return CampaignSpec(
        scenarios=scenarios,
        schedulers=[spec.scheduler],
        seeds=list(range(spec.repetitions)),
        seed=spec.seed,
        metrics=list(LEADERBOARD_METRICS),
        name="tournament",
    )


def build_leaderboard(
    spec: TournamentSpec, rows: Sequence[Mapping[str, Any]]
) -> dict[str, Any]:
    """Distil tidy campaign rows into the ranked leaderboard document.

    ``rows`` is any iterable of tidy-table rows — straight from
    :meth:`~.runner.CampaignResult.table` or re-parsed from the canonical
    CSV a service cache hit returns; both sources yield the identical
    document because the CSV stores ``repr``-precision floats. Cells
    aggregate per (gateway, eviction) in sorted (label, seed) order, so the
    float means — and therefore the rendered bytes — do not depend on the
    order rows arrived in.
    """
    groups: dict[tuple[str, str], list[Mapping[str, Any]]] = {}
    for row in rows:
        label = str(row["scenario"])
        parts = label.split(LABEL_SEPARATOR)
        if len(parts) != 3:
            raise ConfigurationError(
                f"row scenario label {label!r} is not "
                "'preset|gateway|eviction'"
            )
        groups.setdefault((parts[1], parts[2]), []).append(row)
    entries: list[dict[str, Any]] = []
    for (gateway, eviction), cells in sorted(groups.items()):
        ordered = sorted(
            cells, key=lambda c: (str(c["scenario"]), int(c["seed"]))
        )
        entry: dict[str, Any] = {
            "gateway": gateway,
            "eviction": eviction,
            "cells": len(ordered),
        }
        for metric in LEADERBOARD_METRICS:
            values = [float(cell[metric]) for cell in ordered]
            entry[metric] = sum(values) / len(values)
        entries.append(entry)
    entries.sort(
        key=lambda e: (
            -e["completion_rate"],
            e["mean_response_time"],
            e["gateway"],
            e["eviction"],
        )
    )
    for rank, entry in enumerate(entries, start=1):
        entry["rank"] = rank
    return {
        "kind": "tournament-leaderboard",
        "grid": spec.grid(),
        "metrics": list(LEADERBOARD_METRICS),
        "entries": entries,
    }


def leaderboard_json(board: Mapping[str, Any]) -> str:
    """Canonical bytes of a leaderboard: sorted keys, ``repr`` floats.

    ``json.dumps`` renders floats with ``repr`` precision, so two runs of
    the same tournament — serial, 2 workers, 8 workers, or a service cache
    hit — produce byte-identical files.
    """
    return json.dumps(board, indent=2, sort_keys=True) + "\n"


def leaderboard_text(board: Mapping[str, Any]) -> str:
    """The tidy human-readable leaderboard table."""
    entries = board["entries"]
    gateway_width = max(
        [len("gateway")] + [len(e["gateway"]) for e in entries]
    )
    eviction_width = max(
        [len("eviction")] + [len(e["eviction"]) for e in entries]
    )
    metrics = list(board.get("metrics", LEADERBOARD_METRICS))
    header = "  ".join(
        ["rank", f"{'gateway':<{gateway_width}}",
         f"{'eviction':<{eviction_width}}"]
        + [f"{m:>{max(len(m), 12)}}" for m in metrics]
        + ["cells"]
    )
    lines = [header, "-" * len(header)]
    for entry in entries:
        lines.append(
            "  ".join(
                [f"{entry['rank']:>4}",
                 f"{entry['gateway']:<{gateway_width}}",
                 f"{entry['eviction']:<{eviction_width}}"]
                + [
                    f"{entry[m]:>{max(len(m), 12)}.4f}"
                    for m in metrics
                ]
                + [f"{entry['cells']:>5}"]
            )
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class TournamentResult:
    """A finished tournament: the campaign table plus its leaderboard."""

    spec: TournamentSpec
    campaign: CampaignResult
    leaderboard: dict[str, Any] = field(repr=False)

    def to_json(self) -> str:
        """Canonical ``leaderboard.json`` bytes (see :func:`leaderboard_json`)."""
        return leaderboard_json(self.leaderboard)

    def to_text(self) -> str:
        """Human-readable leaderboard table."""
        return leaderboard_text(self.leaderboard)


def run_tournament(
    spec: TournamentSpec,
    *,
    parallel: bool = True,
    workers: int | None = None,
) -> TournamentResult:
    """Run the tournament's campaign and build its leaderboard."""
    campaign = run_campaign(
        tournament_campaign(spec), parallel=parallel, workers=workers
    )
    return TournamentResult(
        spec=spec,
        campaign=campaign,
        leaderboard=build_leaderboard(spec, campaign.table()),
    )
