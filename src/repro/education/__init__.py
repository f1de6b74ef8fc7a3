"""Education layer (§4–§5): the class assignment behind Figs 5–7, the quiz
engine, and the §5 study's numbers, transcribed from the paper."""

from .assignment import (
    BATCH_POLICIES,
    IMMEDIATE_POLICIES,
    AssignmentConfig,
    AssignmentFigure,
    build_heterogeneous_eet,
    build_homogeneous_eet,
    figure5,
    figure6,
    figure7,
    run_completion_sweep,
)
from .quiz import DEFAULT_METHODS, QuizQuestion, generate_quiz

__all__ = [
    "AssignmentConfig",
    "AssignmentFigure",
    "IMMEDIATE_POLICIES",
    "BATCH_POLICIES",
    "build_homogeneous_eet",
    "build_heterogeneous_eet",
    "run_completion_sweep",
    "figure5",
    "figure6",
    "figure7",
    "QuizQuestion",
    "generate_quiz",
    "DEFAULT_METHODS",
]
