"""Synthetic student cohort with a learning effect — the §5 quiz study.

The paper reports a pre-quiz average of 7.6/12 and a post-quiz average of
8.94/12 (+17.6%) across 23 students. We cannot rerun the human study;
instead this module models each student as a per-method *mastery*
probability: when a student has mastered a method they produce its correct
mapping; otherwise they guess uniformly among the machines (so even
unmastered students score 1/M per task in expectation — exactly why the
paper's pre-scores sit well above zero).

Expected score: E[points] = T·K·(p + (1-p)/M) for T tasks, K methods, M
machines, mastery p. Inverting the paper's averages for T=3, K=4, M=4:

    pre : 7.60/12 = 0.633 ⇒ p ≈ 0.511
    post: 8.94/12 = 0.745 ⇒ p ≈ 0.660

Cohort mastery is Beta-distributed around those means (students differ) and
per-method difficulty offsets make MM/MSD harder than MEET/MECT, matching
the intuition that batch heuristics are harder to trace by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.errors import ConfigurationError
from ..core.rng import make_rng, spawn
from .quiz import DEFAULT_METHODS, QuizQuestion, QuizResult, generate_quiz

__all__ = [
    "Student",
    "CohortModel",
    "QuizStudyResult",
    "run_quiz_study",
    "PAPER_PRE_MEAN",
    "PAPER_POST_MEAN",
    "mastery_for_target_score",
]

#: Averages reported in §5 (out of 12).
PAPER_PRE_MEAN = 7.6
PAPER_POST_MEAN = 8.94

#: Per-method difficulty offsets (added to the base mastery, then clipped).
_DIFFICULTY: dict[str, float] = {
    "MEET": +0.10,
    "MECT": +0.05,
    "MM": -0.07,
    "MSD": -0.08,
}


def mastery_for_target_score(
    target_mean: float, *, max_points: int = 12, n_machines: int = 4
) -> float:
    """Invert E[score] = P·(p + (1-p)/M) to the mastery p."""
    if not 0 < target_mean <= max_points:
        raise ConfigurationError(
            f"target mean must be in (0, {max_points}], got {target_mean}"
        )
    guess = 1.0 / n_machines
    p = (target_mean / max_points - guess) / (1.0 - guess)
    if p < 0:
        raise ConfigurationError(
            f"target {target_mean}/{max_points} is below the guessing floor"
        )
    return min(p, 1.0)


@dataclass
class Student:
    """One simulated student: a mastery probability per method."""

    student_id: int
    mastery: dict[str, float]

    def answer(
        self, question: QuizQuestion, rng: np.random.Generator
    ) -> dict[str, dict[int, int]]:
        """Produce an answer sheet: truth when mastered, uniform guess else."""
        key = question.answer_key()
        n_machines = question.eet.n_machine_types
        answers: dict[str, dict[int, int]] = {}
        for method in question.methods:
            p = self.mastery.get(method, 0.0)
            sheet: dict[int, int] = {}
            for task_id, machine_id in key[method].items():
                if rng.random() < p:
                    sheet[task_id] = machine_id
                else:
                    sheet[task_id] = int(rng.integers(n_machines))
            answers[method] = sheet
        return answers

    def take(self, question: QuizQuestion, rng: np.random.Generator) -> QuizResult:
        return question.grade(self.answer(question, rng))


@dataclass
class CohortModel:
    """A class of students with Beta-distributed base mastery."""

    n_students: int = 23
    mean_mastery: float = 0.5
    concentration: float = 12.0
    methods: Sequence[str] = DEFAULT_METHODS

    def __post_init__(self) -> None:
        if self.n_students < 1:
            raise ConfigurationError("cohort needs at least one student")
        if not 0 < self.mean_mastery < 1:
            raise ConfigurationError(
                f"mean mastery must be in (0, 1), got {self.mean_mastery}"
            )
        if self.concentration <= 0:
            raise ConfigurationError("concentration must be positive")

    def sample(self, rng: np.random.Generator) -> list[Student]:
        a = self.mean_mastery * self.concentration
        b = (1 - self.mean_mastery) * self.concentration
        students = []
        for sid in range(self.n_students):
            base = float(rng.beta(a, b))
            mastery = {
                m: float(np.clip(base + _DIFFICULTY.get(m, 0.0), 0.0, 1.0))
                for m in self.methods
            }
            students.append(Student(student_id=sid, mastery=mastery))
        return students


@dataclass(frozen=True)
class QuizStudyResult:
    """Outcome of the pre/post study."""

    pre_scores: list[int]
    post_scores: list[int]
    max_points: int

    @property
    def pre_mean(self) -> float:
        return float(np.mean(self.pre_scores))

    @property
    def post_mean(self) -> float:
        return float(np.mean(self.post_scores))

    @property
    def improvement(self) -> float:
        """Relative improvement, the paper's ≈ 17.6%."""
        return (self.post_mean - self.pre_mean) / self.pre_mean

    def as_dict(self) -> dict:
        return {
            "pre_mean": self.pre_mean,
            "post_mean": self.post_mean,
            "max_points": self.max_points,
            "improvement": self.improvement,
            "n_students": len(self.pre_scores),
        }


def run_quiz_study(
    *,
    n_students: int = 23,
    pre_target: float = PAPER_PRE_MEAN,
    post_target: float = PAPER_POST_MEAN,
    seed: int | None = None,
    n_machines: int = 4,
    n_tasks: int = 3,
) -> QuizStudyResult:
    """Simulate the pre/post quiz study of §5.

    Builds two cohorts sharing per-student identity (the post cohort is the
    pre cohort with mastery shifted up by the learning effect), generates a
    quiz instance per phase, and grades everyone.
    """
    rng = make_rng(seed)
    quiz_rng, pre_rng, post_rng, answer_rng = spawn(rng, 4)

    pre_quiz = generate_quiz(
        n_tasks=n_tasks, n_machines=n_machines, seed=quiz_rng
    )
    post_quiz = generate_quiz(
        n_tasks=n_tasks, n_machines=n_machines, seed=quiz_rng
    )
    max_points = pre_quiz.max_points

    pre_mastery = mastery_for_target_score(
        pre_target, max_points=max_points, n_machines=n_machines
    )
    post_mastery = mastery_for_target_score(
        post_target, max_points=max_points, n_machines=n_machines
    )

    pre_cohort = CohortModel(
        n_students=n_students, mean_mastery=pre_mastery
    ).sample(pre_rng)
    gain = post_mastery - pre_mastery
    post_cohort = [
        Student(
            student_id=s.student_id,
            mastery={
                m: float(np.clip(p + gain, 0.0, 1.0))
                for m, p in s.mastery.items()
            },
        )
        for s in pre_cohort
    ]

    pre_scores = [s.take(pre_quiz, answer_rng).points for s in pre_cohort]
    post_scores = [s.take(post_quiz, answer_rng).points for s in post_cohort]
    return QuizStudyResult(
        pre_scores=pre_scores, post_scores=post_scores, max_points=max_points
    )
