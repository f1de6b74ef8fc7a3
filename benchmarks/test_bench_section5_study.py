"""E-S5 — §5: the pre/post quiz means and the Fig 8a/8b survey scores.

A human study cannot be rerun here, so these files print the paper's own
numbers from :mod:`repro.education.paper_study`, each labelled as
transcribed from §5, not reproduced. Nothing in them is measured.
"""

from repro.education.paper_study import (
    LABEL,
    QUIZ_IMPROVEMENT_PCT,
    QUIZ_MAX_POINTS,
    QUIZ_POST_MEAN,
    QUIZ_PRE_MEAN,
    STUDENTS_BY_GENDER,
    SURVEY_METRICS,
    survey_chart,
)

FIGURES = {
    "ux": "figure8a_survey_ux",
    "learning": "figure8b_learning_outcomes",
}


def survey_text(category: str) -> str:
    out = survey_chart(category).to_text() + "\n"
    for metric in SURVEY_METRICS:
        if metric.category == category and metric.grad_only:
            out += f"\n[{metric.label}]: asked of graduate students only\n"
    return out


def quiz_text() -> str:
    n = sum(STUDENTS_BY_GENDER.values())
    derived = 100 * (QUIZ_POST_MEAN - QUIZ_PRE_MEAN) / QUIZ_PRE_MEAN
    return (
        f"pre/post quiz study, {LABEL}\n"
        f"  students            : transcribed {n}\n"
        f"  pre-quiz mean       : transcribed {QUIZ_PRE_MEAN:5.2f} / {QUIZ_MAX_POINTS}\n"
        f"  post-quiz mean      : transcribed {QUIZ_POST_MEAN:5.2f} / {QUIZ_MAX_POINTS}\n"
        f"  relative improvement: transcribed {QUIZ_IMPROVEMENT_PCT:.1f}%"
        f"  (from the transcribed means: {derived:.1f}%)\n"
    )


def test_bench_section5(results_dir):
    for category, stem in FIGURES.items():
        text = survey_text(category)
        (results_dir / f"{stem}.txt").write_text(text, encoding="utf-8")
        survey_chart(category).to_csv(results_dir / f"{stem}.csv")
        assert LABEL in text and "measured" not in text
    text = quiz_text()
    (results_dir / "quiz_improvement.txt").write_text(text, encoding="utf-8")
    assert LABEL in text and "measured" not in text
