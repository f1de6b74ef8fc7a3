"""Declarative experiment campaigns: scenario grid × scheduler list × seeds.

The paper positions E2C as an instrument for comparing scheduling policies
across heterogeneous scenarios; follow-on work runs exactly such
multi-policy, multi-platform sweeps. A :class:`CampaignSpec` captures one
sweep declaratively — which registered scenarios (with per-scenario factory
overrides), which policies, which seeds — and expands it into the cartesian
product of :class:`RunSpec` cells. Specs round-trip through plain dicts and
JSON so a campaign is a reproducible artifact exactly like a scenario file.

Seeding: every cell's scenario seed is derived from the campaign master seed
and the (scenario label, grid seed) pair via :func:`repro.core.rng.derive_seed`.
The scheduler deliberately does *not* enter the derivation, so every policy
faces the identical workload for a given (scenario, seed) cell — paired
comparisons with common random numbers.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..core.errors import ConfigurationError
from ..core.fields import array, integer, record, text
from ..core.jsonio import load_json_source
from ..core.rng import derive_seed
from ..metrics.collector import SummaryMetrics
from ..scenarios import scenario_factory
from ..scheduling.registry import scheduler_class

__all__ = ["ScenarioRef", "RunSpec", "CampaignSpec", "DEFAULT_METRICS"]

#: Summary metrics campaigns report on unless the spec says otherwise.
DEFAULT_METRICS = (
    "completion_rate",
    "mean_response_time",
    "total_energy",
)

#: Names a campaign may report on: the numeric SummaryMetrics fields.
_METRIC_NAMES = tuple(
    f.name for f in fields(SummaryMetrics) if f.type in ("int", "float")
)


@dataclass(frozen=True)
class ScenarioRef:
    """A named scenario preset plus factory overrides.

    ``name`` must resolve in the scenario registry; ``overrides`` are keyword
    arguments forwarded to the factory (e.g. ``duration``, ``intensity``).
    ``label`` distinguishes two refs to the same preset with different
    overrides; it defaults to ``name``.
    """

    name: str
    overrides: Mapping[str, Any] = field(default_factory=dict)
    label: str | None = None

    def __post_init__(self) -> None:
        text(self.name, "scenario reference name")
        if self.label is not None:
            text(self.label, f"scenario {self.name!r}.label")

    @property
    def effective_label(self) -> str:
        return self.label or self.name

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"name": self.name}
        if self.overrides:
            out["overrides"] = dict(self.overrides)
        if self.label is not None:
            out["label"] = self.label
        return out

    @classmethod
    def coerce(cls, value: "ScenarioRef | str | Mapping[str, Any]") -> "ScenarioRef":
        """Accept a ref, a bare preset name, or its dict form."""
        if isinstance(value, ScenarioRef):
            return value
        if isinstance(value, str):
            return cls(name=value)
        if isinstance(value, Mapping):
            if "name" not in value:
                raise ConfigurationError(
                    f"scenario reference {dict(value)!r} needs a 'name'"
                )
            ref = record(value, "scenario reference", [f.name for f in fields(cls)])
            return cls(
                name=ref["name"],
                overrides=record(
                    ref.get("overrides", {}), f"scenario {ref['name']!r}.overrides"
                ),
                label=ref.get("label"),
            )
        raise ConfigurationError(
            f"cannot interpret {value!r} as a scenario reference"
        )


@dataclass(frozen=True)
class RunSpec:
    """One fully-determined cell of the campaign grid.

    Self-contained and picklable: a worker process rebuilds the scenario from
    the registry using only this object. ``run_seed`` is the derived scenario
    seed (see module docstring); ``seed`` is the grid-axis value it came from.
    """

    campaign: str
    scenario: str
    overrides: Mapping[str, Any]
    label: str
    scheduler: str
    scheduler_params: Mapping[str, Any]
    seed: int
    run_seed: int

    def key(self) -> tuple[str, str, int]:
        """Identity of the cell within its campaign."""
        return (self.label, self.scheduler, self.seed)


@dataclass
class CampaignSpec:
    """Declarative description of a full experiment campaign.

    Attributes
    ----------
    scenarios:
        Scenario refs (or bare preset names / dicts — coerced on init).
    schedulers:
        Registry names of the policies to sweep.
    seeds:
        Grid seed values; each (scenario, seed) pair gets an independent
        workload shared by every scheduler.
    seed:
        Campaign master seed all per-run seeds derive from.
    scheduler_params:
        Optional per-policy constructor kwargs, keyed by policy name.
    metrics:
        Summary metrics the comparison report shows.
    name:
        Campaign identifier (report headers, CSV file names).
    """

    scenarios: Sequence[ScenarioRef | str | Mapping[str, Any]]
    schedulers: Sequence[str]
    seeds: Sequence[int] = (0,)
    seed: int = 0
    scheduler_params: dict[str, dict] = field(default_factory=dict)
    metrics: Sequence[str] = DEFAULT_METRICS
    name: str = "campaign"

    def __post_init__(self) -> None:
        self.scenarios = [
            ScenarioRef.coerce(s) for s in array(self.scenarios, "campaign.scenarios")
        ]
        # Canonicalise policy names (case/alias) so scheduler_params lookup,
        # reports and CSV columns all show registry names.
        self.schedulers = [
            scheduler_class(text(s, f"campaign.schedulers[{i}]")).name
            for i, s in enumerate(array(self.schedulers, "campaign.schedulers"))
        ]
        self.scheduler_params = {
            scheduler_class(k).name: record(v, f"campaign.scheduler_params[{k!r}]")
            for k, v in record(
                self.scheduler_params, "campaign.scheduler_params"
            ).items()
        }
        try:
            # derive_seed feeds numpy's SeedSequence, which rejects negatives
            self.seeds = [
                integer(s, f"seeds[{i}]")
                for i, s in enumerate(array(self.seeds, "seeds"))
            ]
            self.seed = integer(self.seed, "seed")
        except ConfigurationError as exc:
            raise ConfigurationError(
                f"campaign seeds must be non-negative integers: {exc}"
            ) from None
        self.metrics = array(self.metrics, "campaign.metrics")
        for i, metric in enumerate(self.metrics):
            if text(metric, f"campaign.metrics[{i}]") not in _METRIC_NAMES:
                raise ConfigurationError(
                    f"campaign.metrics[{i}] is not a summary metric: "
                    f"{metric!r}; known: {list(_METRIC_NAMES)}"
                )
        self.name = text(self.name, "campaign.name")
        self.validate()

    def validate(self) -> None:
        if not self.scenarios:
            raise ConfigurationError("campaign needs at least one scenario")
        if not self.schedulers:
            raise ConfigurationError("campaign needs at least one scheduler")
        if not self.seeds:
            raise ConfigurationError("campaign needs at least one seed")
        labels = [ref.effective_label for ref in self.scenarios]
        duplicates = {l for l in labels if labels.count(l) > 1}
        if duplicates:
            raise ConfigurationError(
                f"duplicate scenario labels {sorted(duplicates)}; "
                "give overridden refs distinct 'label's"
            )
        for ref in self.scenarios:
            factory = scenario_factory(ref.name)  # raises UnknownScenarioError
            try:
                inspect.signature(factory).bind_partial(**dict(ref.overrides))
            except TypeError as exc:
                raise ConfigurationError(
                    f"invalid overrides for scenario {ref.name!r}: {exc}"
                ) from exc
        unknown = set(self.scheduler_params) - set(self.schedulers)
        if unknown:
            raise ConfigurationError(
                f"scheduler_params for policies not in the sweep: "
                f"{sorted(unknown)}"
            )

    @property
    def n_runs(self) -> int:
        return len(self.scenarios) * len(self.schedulers) * len(self.seeds)

    def cells(self) -> list[RunSpec]:
        """Expand the grid, scenario-major, in deterministic order."""
        out = []
        for ref in self.scenarios:
            label = ref.effective_label
            for scheduler in self.schedulers:
                params = self.scheduler_params.get(scheduler, {})
                for grid_seed in self.seeds:
                    out.append(
                        RunSpec(
                            campaign=self.name,
                            scenario=ref.name,
                            overrides=dict(ref.overrides),
                            label=label,
                            scheduler=scheduler,
                            scheduler_params=dict(params),
                            seed=grid_seed,
                            run_seed=derive_seed(
                                self.seed, "campaign", label, grid_seed
                            ),
                        )
                    )
        return out

    # -- dict / JSON round-trip ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "scenarios": [ref.to_dict() for ref in self.scenarios],
            "schedulers": list(self.schedulers),
            "seeds": list(self.seeds),
            "scheduler_params": {
                k: dict(v) for k, v in self.scheduler_params.items()
            },
            "metrics": list(self.metrics),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        keys = [f.name for f in fields(cls)]
        return cls(**record(data, "campaign spec", keys, ("scenarios", "schedulers")))

    def to_json(self, path: str | Path | None = None, *, indent: int = 2) -> str:
        text = json.dumps(self.to_dict(), indent=indent)
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    @classmethod
    def from_json(cls, source: str | Path) -> "CampaignSpec":
        """Load from a JSON file path or a JSON string (like Scenario)."""
        return cls.from_dict(load_json_source(source, what="campaign spec"))
