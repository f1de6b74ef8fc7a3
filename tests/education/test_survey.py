"""Survey schema, calibrated cohort and analysis (Fig. 8)."""

import pytest

from repro.core.errors import ConfigurationError
from repro.education.survey import (
    PAPER_METRICS,
    SurveyStudy,
    generate_cohort,
)


@pytest.fixture(scope="module")
def study():
    return SurveyStudy(generate_cohort(seed=42))


class TestDemographics:
    def test_cohort_composition(self, study):
        demo = study.demographics()
        assert demo["n_students"] == 23
        assert demo["male_fraction"] == pytest.approx(17 / 23)
        assert demo["female_fraction"] == pytest.approx(6 / 23)
        assert demo["undergraduate_fraction"] == pytest.approx(14 / 23)
        assert demo["graduate_fraction"] == pytest.approx(9 / 23)

    def test_programming_experience(self, study):
        demo = study.demographics()
        assert demo["prog_experience_mean"] == pytest.approx(3.8, abs=0.1)
        assert demo["prog_experience_median"] == pytest.approx(3.0, abs=0.01)

    def test_os_course_fraction(self, study):
        assert study.demographics()["passed_os_fraction"] == pytest.approx(
            10 / 23
        )


class TestCalibration:
    @pytest.mark.parametrize(
        "metric", [m for m in PAPER_METRICS if not m.grad_only],
        ids=lambda m: m.key,
    )
    def test_gender_means_match_paper(self, study, metric):
        assert study.mean(metric.key, gender="female") == pytest.approx(
            metric.female_target, abs=0.15
        )
        assert study.mean(metric.key, gender="male") == pytest.approx(
            metric.male_target, abs=0.15
        )

    def test_overall_means_consistent(self, study):
        # overall = weighted mix of the gender means
        m = next(m for m in PAPER_METRICS if m.key == "intuitive_gui")
        expected = (m.female_target * 6 + m.male_target * 17) / 23
        assert study.mean("intuitive_gui") == pytest.approx(expected, abs=0.15)

    def test_report_metric_is_the_low_one(self, study):
        """The paper's one weak score: comprehensive report ≈ 5.7."""
        value = study.mean("comprehensive_report")
        assert value == pytest.approx(5.61, abs=0.3)
        assert value < study.mean("ease_of_use")

    def test_grad_only_metric_restricted(self, study):
        scores = study.scores_for("adding_custom_sched")
        assert len(scores) == 9  # graduate students only

    def test_scores_are_integers_in_range(self, study):
        for metric in PAPER_METRICS:
            for score in study.scores_for(metric.key):
                assert isinstance(score, int)
                assert 0 <= score <= 10

    def test_deterministic(self):
        a = SurveyStudy(generate_cohort(seed=7))
        b = SurveyStudy(generate_cohort(seed=7))
        for metric in PAPER_METRICS:
            assert a.scores_for(metric.key) == b.scores_for(metric.key)


class TestFigures:
    def test_fig8a_metrics(self, study):
        chart = study.figure_8a()
        assert "intuitive GUI" in chart.groups
        assert "comprehensive report" in chart.groups
        assert set(chart.series) == {"overall", "female", "male"}

    def test_fig8b_metrics(self, study):
        chart = study.figure_8b()
        assert "overall usefulness" in chart.groups
        assert len(chart.groups) == 4

    def test_fig8b_female_above_male(self, study):
        """§5: 'E2C is more effective for female students'."""
        chart = study.figure_8b()
        for group in chart.groups:
            assert chart.get(group, "female") > chart.get(group, "male")

    def test_chart_renders(self, study):
        text = study.figure_8a().to_text()
        assert "Fig 8a" in text


class TestValidation:
    def test_empty_respondents_rejected(self):
        with pytest.raises(ConfigurationError):
            SurveyStudy([])

    def test_unknown_metric_rejected(self, study):
        with pytest.raises(ConfigurationError):
            study.scores_for("charisma")
