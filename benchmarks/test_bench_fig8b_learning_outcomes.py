"""E-F8b — Figure 8b: survey, learning-outcome scores (§5).

Regenerates the four learning metrics and asserts the paper's aggregates:
all near 8–9 of 10, heterogeneous-scheduling insight rated ≈ 8.7, overall
usefulness ≈ 8.8, and "E2C is more effective for female students" (female
mean > male mean on every learning metric).
"""

import pytest

from repro.education.survey import PAPER_METRICS, SurveyStudy, generate_cohort


def build_study() -> SurveyStudy:
    return SurveyStudy(generate_cohort(seed=42))


def test_bench_figure8b(results_dir):
    study = build_study()
    chart = study.figure_8b()

    out = chart.to_text() + "\n\nmeasured vs paper (gender means):\n"
    for metric in PAPER_METRICS:
        if metric.category != "learning":
            continue
        out += (
            f"  {metric.label:<44} female {study.mean(metric.key, gender='female'):5.2f}"
            f" (paper {metric.female_target:.1f})   male "
            f"{study.mean(metric.key, gender='male'):5.2f}"
            f" (paper {metric.male_target:.1f})\n"
        )
    (results_dir / "figure8b_learning_outcomes.txt").write_text(
        out, encoding="utf-8"
    )
    chart.to_csv(results_dir / "figure8b_learning_outcomes.csv")

    # Weighted aggregates implied by the paper's gender means.
    assert study.mean("heterogeneous_scheduling") == pytest.approx(8.62, abs=0.2)
    assert study.mean("homogeneous_scheduling") == pytest.approx(8.69, abs=0.2)
    assert study.mean("arrival_rate_impact") == pytest.approx(8.59, abs=0.2)
    assert study.mean("overall_usefulness") == pytest.approx(8.83, abs=0.2)

    # Medians land in the ballpark the paper reports (8.7 / 8 / 8.6 / 8.8).
    assert 8.0 <= study.median("heterogeneous_scheduling") <= 9.5
    assert 8.0 <= study.median("overall_usefulness") <= 9.5

    # "the gender-based results show that E2C is more effective for female
    # students" — female mean strictly above male on every learning metric.
    for metric in PAPER_METRICS:
        if metric.category != "learning":
            continue
        assert study.mean(metric.key, gender="female") > study.mean(
            metric.key, gender="male"
        )
