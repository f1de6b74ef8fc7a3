"""Quiz engine: ground truth, validation, generation."""

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.education.quiz import (
    DEFAULT_METHODS,
    QuizQuestion,
    generate_quiz,
)
from repro.machines.eet import EETMatrix


@pytest.fixture
def hand_quiz():
    """3 tasks × 4 machines with hand-checkable EETs.

            A    B    C    D
    T1     4    2    8    6     deadline 20
    T2     3    7    1    9     deadline 10
    T3     5    5    5    2     deadline 30
    """
    eet = EETMatrix(
        np.array(
            [[4.0, 2.0, 8.0, 6.0], [3.0, 7.0, 1.0, 9.0], [5.0, 5.0, 5.0, 2.0]]
        ),
        ["T1", "T2", "T3"],
        ["A", "B", "C", "D"],
    )
    return QuizQuestion(eet=eet, deadlines=[20.0, 10.0, 30.0])


class TestGroundTruth:
    def test_meet_is_rowwise_argmin(self, hand_quiz):
        assert hand_quiz.correct_mapping("MEET") == {0: 1, 1: 2, 2: 3}

    def test_mect_sequential_with_load(self, hand_quiz):
        # T1 -> B (2). T2 -> C (1). T3: A=5, B=2+5=7, C=1+5=6, D=2 -> D.
        assert hand_quiz.correct_mapping("MECT") == {0: 1, 1: 2, 2: 3}

    def test_mect_load_matters(self):
        """Two identical tasks: second must avoid the machine the first took."""
        eet = EETMatrix(
            np.array([[2.0, 3.0], [2.0, 3.0]]), ["T1", "T2"], ["A", "B"]
        )
        quiz = QuizQuestion(eet=eet, deadlines=[50.0, 50.0])
        mapping = quiz.correct_mapping("MECT")
        assert mapping[0] == 0  # EET 2 on A
        assert mapping[1] == 1  # A would finish at 4; B finishes at 3

    def test_mm_batch_mapping(self, hand_quiz):
        # Min-Min: global min is T2@C (1); then T1@B (2); then T3:
        # A=5, B=2+5=7, C=1+5=6, D=2 -> D.
        assert hand_quiz.correct_mapping("MM") == {0: 1, 1: 2, 2: 3}

    def test_msd_deadline_order(self, hand_quiz):
        # EDF order: T2 (10), T1 (20), T3 (30); same machines here.
        mapping = hand_quiz.correct_mapping("MSD")
        assert mapping == {0: 1, 1: 2, 2: 3}

    def test_methods_can_disagree(self):
        """MEET vs MECT disagree when the fast machine is contested."""
        eet = EETMatrix(
            np.array([[2.0, 4.0], [2.0, 4.0], [2.0, 4.0]]),
            ["T1", "T2", "T3"],
            ["fast", "slow"],
        )
        quiz = QuizQuestion(eet=eet, deadlines=[99.0, 99.0, 99.0])
        meet = quiz.correct_mapping("MEET")
        mect = quiz.correct_mapping("MECT")
        assert set(meet.values()) == {0}  # MEET piles everything on 'fast'
        assert 1 in mect.values()  # MECT overflows to 'slow'

    def test_answer_key_covers_all_methods(self, hand_quiz):
        key = hand_quiz.answer_key()
        assert set(key) == set(DEFAULT_METHODS)
        for mapping in key.values():
            assert set(mapping) == {0, 1, 2}


class TestValidation:
    def test_deadline_count_mismatch(self):
        eet = EETMatrix(np.ones((2, 2)), ["T1", "T2"], ["A", "B"])
        with pytest.raises(ConfigurationError):
            QuizQuestion(eet=eet, deadlines=[1.0])

    def test_nonpositive_deadline(self):
        eet = EETMatrix(np.ones((1, 2)), ["T1"], ["A", "B"])
        with pytest.raises(ConfigurationError):
            QuizQuestion(eet=eet, deadlines=[0.0])

    def test_no_methods(self):
        eet = EETMatrix(np.ones((1, 2)), ["T1"], ["A", "B"])
        with pytest.raises(ConfigurationError):
            QuizQuestion(eet=eet, deadlines=[1.0], methods=())


class TestGeneration:
    def test_paper_shape(self):
        quiz = generate_quiz(seed=0)
        assert quiz.n_tasks == 3
        assert quiz.eet.n_machine_types == 4
        assert quiz.n_tasks * len(quiz.methods) == 12

    def test_deterministic(self):
        a = generate_quiz(seed=5)
        b = generate_quiz(seed=5)
        assert a.eet == b.eet
        assert a.deadlines == b.deadlines

    def test_to_text_mentions_everything(self):
        quiz = generate_quiz(seed=1)
        text = quiz.to_text()
        for name in quiz.eet.machine_type_names:
            assert name in text
        for method in quiz.methods:
            assert method in text

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_quiz(n_tasks=0)
        with pytest.raises(ConfigurationError):
            generate_quiz(n_machines=1)
