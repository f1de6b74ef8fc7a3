"""E-Q1 — §5 headline number: pre/post quiz improvement.

Paper: "The average score of students has improved from 7.6 (out 12 points)
in the first quiz to 8.94 in the second quiz ... E2C could improve the
students' learning ... by 17.6%."

Regenerates the study over 10 cohort replications (each 23 students, with
the calibrated learning-effect model) and asserts the pre/post means and the
relative improvement stay in the paper's band.
"""

import numpy as np
import pytest

from repro.education.cohort import (
    PAPER_POST_MEAN,
    PAPER_PRE_MEAN,
    run_quiz_study,
)

N_REPLICATIONS = 10


def run_replicated_study():
    return [run_quiz_study(seed=seed) for seed in range(N_REPLICATIONS)]


def test_bench_quiz_improvement(results_dir):
    studies = run_replicated_study()
    pre = float(np.mean([s.pre_mean for s in studies]))
    post = float(np.mean([s.post_mean for s in studies]))
    improvement = (post - pre) / pre

    out = (
        "pre/post quiz study — paper vs measured\n"
        f"  replications        : {N_REPLICATIONS} cohorts × 23 students\n"
        f"  pre-quiz mean       : measured {pre:5.2f} / 12   paper {PAPER_PRE_MEAN:5.2f}\n"
        f"  post-quiz mean      : measured {post:5.2f} / 12   paper {PAPER_POST_MEAN:5.2f}\n"
        f"  relative improvement: measured {100 * improvement:5.1f}%     paper  17.6%\n"
        "\nper-replication means (pre -> post):\n"
    )
    for i, s in enumerate(studies):
        out += f"  seed {i:>2}: {s.pre_mean:5.2f} -> {s.post_mean:5.2f}  (+{100 * s.improvement:5.1f}%)\n"
    (results_dir / "quiz_improvement.txt").write_text(out, encoding="utf-8")

    # Paper bands.
    assert pre == pytest.approx(PAPER_PRE_MEAN, abs=0.5)
    assert post == pytest.approx(PAPER_POST_MEAN, abs=0.5)
    assert 0.10 < improvement < 0.28
    # Every individual cohort improves.
    assert all(s.post_mean > s.pre_mean for s in studies)
