"""The paper's §5 human study: its numbers, transcribed from §5, not reproduced.

§5 evaluates E2C with 23 students: a scheduling quiz taken before and after
using the simulator (see :mod:`repro.education.quiz` for the quiz engine),
and a survey of ten 0–10 metrics in two categories, user experience
(Fig. 8a) and learning outcomes (Fig. 8b). A human study cannot be rerun
offline, so nothing here is computed or sampled: every value below is
copied from the paper, and whatever prints it labels it :data:`LABEL`.

The paper states the class make-up as percentages of 23 (73.9% male, 60.9%
undergraduate, 43.5% had passed an OS course); the counts below are the
integers those percentages come from. It does not report the gender split
within each level, so neither does this table.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..viz.barchart import GroupedBarChart

__all__ = [
    "LABEL",
    "STUDENTS_BY_GENDER",
    "STUDENTS_BY_LEVEL",
    "STUDENTS_PASSED_OS",
    "PROGRAMMING_YEARS_MEAN",
    "PROGRAMMING_YEARS_MEDIAN",
    "QUIZ_MAX_POINTS",
    "QUIZ_PRE_MEAN",
    "QUIZ_POST_MEAN",
    "QUIZ_IMPROVEMENT_PCT",
    "SurveyMetric",
    "SURVEY_METRICS",
    "survey_chart",
]

#: How every value of this module is labelled wherever it is printed.
LABEL = "transcribed from §5, not reproduced"

# -- the class ------------------------------------------------------------------

STUDENTS_BY_GENDER: dict[str, int] = {"male": 17, "female": 6}
STUDENTS_BY_LEVEL: dict[str, int] = {"undergraduate": 14, "graduate": 9}
STUDENTS_PASSED_OS = 10
PROGRAMMING_YEARS_MEAN = 3.8
PROGRAMMING_YEARS_MEDIAN = 3.0

# -- the pre/post quiz (3 tasks × 4 methods, one point each) ----------------------

QUIZ_MAX_POINTS = 12
QUIZ_PRE_MEAN = 7.6
QUIZ_POST_MEAN = 8.94
#: The improvement as the paper states it.
QUIZ_IMPROVEMENT_PCT = 17.6

# -- the survey (Fig. 8) -------------------------------------------------------------


@dataclass(frozen=True)
class SurveyMetric:
    """One survey question and its published per-gender mean score (/10)."""

    label: str
    category: str  # "ux" (Fig 8a) or "learning" (Fig 8b)
    female_mean: float
    male_mean: float
    grad_only: bool = False  # asked of graduate students only


SURVEY_METRICS: tuple[SurveyMetric, ...] = (
    SurveyMetric("intuitive GUI", "ux", 9.3, 8.0),
    SurveyMetric("ease-of-use", "ux", 9.3, 7.9),
    SurveyMetric("easy installation", "ux", 8.3, 8.3),
    SurveyMetric("comprehensive report", "ux", 4.8, 5.9),
    SurveyMetric("adding custom sched.", "ux", 9.2, 7.4, grad_only=True),
    SurveyMetric("recommend to others", "ux", 9.7, 7.8),
    SurveyMetric("homogeneous scheduling policies", "learning", 9.5, 8.4),
    SurveyMetric("heterogeneous scheduling policies", "learning", 9.8, 8.2),
    SurveyMetric("impact of arrival rate on performance", "learning", 9.7, 8.2),
    SurveyMetric("overall usefulness", "learning", 9.5, 8.6),
)

_FIGURE_TITLES = {
    "ux": "Fig 8a — user experience with E2C (score /10)",
    "learning": "Fig 8b — learning outcomes via E2C (score /10)",
}


def survey_chart(category: str) -> GroupedBarChart:
    """Fig 8a (``"ux"``) or Fig 8b (``"learning"``): the per-gender means."""
    chart = GroupedBarChart(
        title=f"{_FIGURE_TITLES[category]}, {LABEL}", max_value=10.0, unit="/10"
    )
    for metric in SURVEY_METRICS:
        if metric.category == category:
            chart.set(metric.label, "female (transcribed from §5)", metric.female_mean)
            chart.set(metric.label, "male (transcribed from §5)", metric.male_mean)
    return chart
