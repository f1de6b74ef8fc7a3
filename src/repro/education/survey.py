"""Survey schema, calibrated synthetic cohort and analysis — §5, Fig. 8.

The paper surveys 23 students (14 undergraduate, 9 graduate; 73.9% male,
26.1% female; mean programming experience 3.8 years, median 3; 43.5% had
passed an OS course) on ten 0–10 metrics in two categories: user experience
(Fig. 8a) and learning outcomes (Fig. 8b). A human study cannot be rerun
here, so this module provides:

* the survey **schema** (respondent demographics + metric definitions with
  the paper's published per-gender targets),
* a deterministic **synthetic cohort generator** whose integer scores hit the
  published group means to within rounding (each group's total is the rounded
  target sum; ±1 spread pairs keep the mean exact while varying individuals),
* the **analysis pipeline** (means/medians, per-gender splits, demographic
  table, Fig-8a/8b chart builders) — the part a real study would reuse as-is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..core.errors import ConfigurationError
from ..core.rng import make_rng
from ..metrics.stats import summarize
from ..viz.barchart import GroupedBarChart

__all__ = [
    "SurveyMetric",
    "Respondent",
    "SurveyStudy",
    "PAPER_METRICS",
    "PAPER_COHORT",
    "generate_cohort",
]


@dataclass(frozen=True)
class SurveyMetric:
    """One survey question with the paper's published per-gender targets."""

    key: str
    label: str
    category: str                 # "ux" (Fig 8a) or "learning" (Fig 8b)
    female_target: float
    male_target: float
    grad_only: bool = False


#: The ten metrics of Fig. 8 with the gender means reported in §5.
PAPER_METRICS: tuple[SurveyMetric, ...] = (
    # -- Fig 8a: user experience --
    SurveyMetric("intuitive_gui", "intuitive GUI", "ux", 9.3, 8.0),
    SurveyMetric("ease_of_use", "ease-of-use", "ux", 9.3, 7.9),
    SurveyMetric("easy_installation", "easy installation", "ux", 8.3, 8.3),
    SurveyMetric("comprehensive_report", "comprehensive report", "ux", 4.8, 5.9),
    SurveyMetric(
        "adding_custom_sched", "adding custom sched.", "ux", 9.2, 7.4,
        grad_only=True,
    ),
    SurveyMetric("recommend_to_others", "recommend to others", "ux", 9.7, 7.8),
    # -- Fig 8b: learning outcomes --
    SurveyMetric(
        "homogeneous_scheduling", "homogeneous scheduling policies",
        "learning", 9.5, 8.4,
    ),
    SurveyMetric(
        "heterogeneous_scheduling", "heterogeneous scheduling policies",
        "learning", 9.8, 8.2,
    ),
    SurveyMetric(
        "arrival_rate_impact", "impact of arrival rate on performance",
        "learning", 9.7, 8.2,
    ),
    SurveyMetric(
        "overall_usefulness", "overall usefulness", "learning", 9.5, 8.6,
    ),
)


@dataclass(frozen=True)
class CohortSpec:
    """Composition of the surveyed class (§5 demographics)."""

    n_female_grad: int = 4
    n_female_undergrad: int = 2
    n_male_grad: int = 5
    n_male_undergrad: int = 12
    prog_experience_mean: float = 3.8
    prog_experience_median: float = 3.0
    n_passed_os: int = 10

    @property
    def n_students(self) -> int:
        return (
            self.n_female_grad
            + self.n_female_undergrad
            + self.n_male_grad
            + self.n_male_undergrad
        )


#: 23 students: 6 female (26.1%), 17 male; 9 graduate, 14 undergraduate.
PAPER_COHORT = CohortSpec()


@dataclass
class Respondent:
    """One survey response sheet."""

    respondent_id: int
    gender: str                   # "female" | "male"
    level: str                    # "graduate" | "undergraduate"
    years_programming: float
    passed_os_course: bool
    scores: dict[str, int] = field(default_factory=dict)


def _integer_scores_with_mean(
    n: int, target: float, rng: np.random.Generator, *, spread_pairs: int = 2
) -> list[int]:
    """n integers in [0, 10] whose total is round(target·n), with ±1 spread."""
    if n <= 0:
        return []
    total = int(round(target * n))
    total = min(max(total, 0), 10 * n)
    base, remainder = divmod(total, n)
    values = [base + 1] * remainder + [base] * (n - remainder)
    # Balanced ±1 pairs keep the sum identical but individualise responses.
    for _ in range(spread_pairs):
        if n < 2:
            break
        i, j = rng.choice(n, size=2, replace=False)
        if values[i] < 10 and values[j] > 0:
            values[int(i)] += 1
            values[int(j)] -= 1
    rng.shuffle(values)
    return [int(v) for v in values]


def _experience_years(spec: CohortSpec, rng: np.random.Generator) -> list[float]:
    """Programming-experience sample matching the paper's mean 3.8 / median 3."""
    n = spec.n_students
    # Right-skewed integers, hand-balanced for the default cohort: sum 87
    # (mean 3.78 ≈ 3.8) and 12th order statistic 3 (median 3).
    base = [1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 4, 4, 5, 6, 7, 8, 9, 10]
    if len(base) != n:  # non-default cohorts: draw from a similar skew
        draws = rng.gamma(2.2, spec.prog_experience_mean / 2.2, size=n)
        return [float(max(0.5, round(d, 1))) for d in draws]
    years = [float(b) for b in base]
    rng.shuffle(years)
    return years


def generate_cohort(
    *,
    spec: CohortSpec = PAPER_COHORT,
    metrics: Sequence[SurveyMetric] = PAPER_METRICS,
    seed: int | None = None,
) -> list[Respondent]:
    """Deterministic synthetic cohort calibrated to the paper's aggregates."""
    rng = make_rng(seed)
    respondents: list[Respondent] = []
    composition = (
        [("female", "graduate")] * spec.n_female_grad
        + [("female", "undergraduate")] * spec.n_female_undergrad
        + [("male", "graduate")] * spec.n_male_grad
        + [("male", "undergraduate")] * spec.n_male_undergrad
    )
    years = _experience_years(spec, rng)
    os_flags = [True] * spec.n_passed_os + [False] * (
        spec.n_students - spec.n_passed_os
    )
    rng.shuffle(os_flags)
    for rid, (gender, level) in enumerate(composition):
        respondents.append(
            Respondent(
                respondent_id=rid,
                gender=gender,
                level=level,
                years_programming=years[rid],
                passed_os_course=os_flags[rid],
            )
        )

    for metric in metrics:
        for gender, target in (
            ("female", metric.female_target),
            ("male", metric.male_target),
        ):
            group = [
                r
                for r in respondents
                if r.gender == gender
                and (not metric.grad_only or r.level == "graduate")
            ]
            values = _integer_scores_with_mean(len(group), target, rng)
            for r, v in zip(group, values):
                r.scores[metric.key] = v
    return respondents


class SurveyStudy:
    """Analysis over a set of respondents (real or synthetic)."""

    def __init__(
        self,
        respondents: Iterable[Respondent],
        metrics: Sequence[SurveyMetric] = PAPER_METRICS,
    ) -> None:
        self.respondents = list(respondents)
        if not self.respondents:
            raise ConfigurationError("survey needs at least one respondent")
        self.metrics = list(metrics)
        self._by_key = {m.key: m for m in self.metrics}

    # -- aggregates ------------------------------------------------------------------

    def scores_for(
        self, key: str, *, gender: str | None = None
    ) -> list[int]:
        if key not in self._by_key:
            raise ConfigurationError(
                f"unknown metric {key!r}; known: {sorted(self._by_key)}"
            )
        return [
            r.scores[key]
            for r in self.respondents
            if key in r.scores and (gender is None or r.gender == gender)
        ]

    def mean(self, key: str, *, gender: str | None = None) -> float:
        return summarize(self.scores_for(key, gender=gender)).mean

    def median(self, key: str, *, gender: str | None = None) -> float:
        return summarize(self.scores_for(key, gender=gender)).median

    def demographics(self) -> dict:
        genders = [r.gender for r in self.respondents]
        levels = [r.level for r in self.respondents]
        years = [r.years_programming for r in self.respondents]
        os_passed = [r.passed_os_course for r in self.respondents]
        n = len(self.respondents)
        return {
            "n_students": n,
            "male_fraction": genders.count("male") / n,
            "female_fraction": genders.count("female") / n,
            "undergraduate_fraction": levels.count("undergraduate") / n,
            "graduate_fraction": levels.count("graduate") / n,
            "prog_experience_mean": float(np.mean(years)),
            "prog_experience_median": float(np.median(years)),
            "passed_os_fraction": sum(os_passed) / n,
        }

    # -- figures ------------------------------------------------------------------------

    def _chart(self, category: str, title: str) -> GroupedBarChart:
        chart = GroupedBarChart(title=title, max_value=10.0, unit="/10")
        for metric in self.metrics:
            if metric.category != category:
                continue
            chart.set(metric.label, "overall", self.mean(metric.key))
            chart.set(metric.label, "female", self.mean(metric.key, gender="female"))
            chart.set(metric.label, "male", self.mean(metric.key, gender="male"))
        return chart

    def figure_8a(self) -> GroupedBarChart:
        """User-experience scores (Fig. 8a)."""
        return self._chart("ux", "Fig 8a — user experience with E2C (score /10)")

    def figure_8b(self) -> GroupedBarChart:
        """Learning-outcome scores (Fig. 8b)."""
        return self._chart(
            "learning", "Fig 8b — learning outcomes via E2C (score /10)"
        )

