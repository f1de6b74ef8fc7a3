"""The §5 table against the figures the paper derives from it."""

import pytest

from repro.education.paper_study import (
    LABEL,
    QUIZ_IMPROVEMENT_PCT,
    QUIZ_MAX_POINTS,
    QUIZ_POST_MEAN,
    QUIZ_PRE_MEAN,
    STUDENTS_BY_GENDER,
    STUDENTS_BY_LEVEL,
    STUDENTS_PASSED_OS,
    SURVEY_METRICS,
    survey_chart,
)
from repro.education.quiz import generate_quiz


def percent(count: int) -> float:
    return round(100 * count / 23, 1)


def test_quiz_means_give_the_stated_improvement():
    derived = 100 * (QUIZ_POST_MEAN - QUIZ_PRE_MEAN) / QUIZ_PRE_MEAN
    assert round(derived, 1) == QUIZ_IMPROVEMENT_PCT == 17.6


def test_group_sizes_give_the_stated_demographics():
    assert sum(STUDENTS_BY_GENDER.values()) == 23
    assert sum(STUDENTS_BY_LEVEL.values()) == 23
    assert percent(STUDENTS_BY_GENDER["male"]) == 73.9
    assert percent(STUDENTS_BY_LEVEL["undergraduate"]) == 60.9
    assert percent(STUDENTS_PASSED_OS) == 43.5


@pytest.mark.parametrize("category, n", [("ux", 6), ("learning", 4)])
def test_fig8_has_its_metrics(category, n):
    metrics = [m for m in SURVEY_METRICS if m.category == category]
    assert len(metrics) == n
    assert all(0 <= m.female_mean <= 10 and 0 <= m.male_mean <= 10 for m in metrics)


@pytest.mark.parametrize("metric", SURVEY_METRICS, ids=lambda m: m.label)
def test_survey_chart_carries_each_transcribed_mean(metric):
    # Each bar holds the paper's value under the right gender, in its own figure.
    chart = survey_chart(metric.category)
    assert chart.get(metric.label, "female (transcribed from §5)") == metric.female_mean
    assert chart.get(metric.label, "male (transcribed from §5)") == metric.male_mean


@pytest.mark.parametrize("category", ["ux", "learning"])
def test_survey_chart_is_labelled_transcribed(category):
    chart = survey_chart(category)
    assert LABEL in chart.title
    assert chart.groups == [m.label for m in SURVEY_METRICS if m.category == category]
    assert all("transcribed from §5" in series for series in chart.series)
    assert "measured" not in chart.to_text()


def test_only_the_custom_scheduler_question_is_graduate_only():
    assert [m.label for m in SURVEY_METRICS if m.grad_only] == ["adding custom sched."]


def test_report_is_the_lowest_user_experience_score():
    ux = [m for m in SURVEY_METRICS if m.category == "ux"]
    assert min(ux, key=lambda m: m.female_mean).label == "comprehensive report"
    assert min(ux, key=lambda m: m.male_mean).label == "comprehensive report"


def test_quiz_max_points_is_the_quiz_engine_sheet():
    # One point per task per method on the paper-shaped quiz.
    quiz = generate_quiz(seed=0)
    assert QUIZ_MAX_POINTS == quiz.n_tasks * len(quiz.methods)
    assert 0 < QUIZ_PRE_MEAN < QUIZ_POST_MEAN <= QUIZ_MAX_POINTS
