#!/usr/bin/env python3
"""The education study of §5: the quiz, and the paper's reported results.

* a scheduling quiz sheet with its auto-computed answer key (3 tasks × 4
  machines × {MEET, MECT, MM, MSD} = 12 points, as in the paper),
* the pre/post quiz means, the class demographics and the Fig-8a/8b survey
  scores, transcribed from §5, not reproduced: a human study cannot be
  rerun offline.

Run:  python examples/education_study.py
"""

from repro.education import paper_study as s5
from repro.education.quiz import generate_quiz


def main() -> None:
    # -- the quiz itself -----------------------------------------------------
    quiz = generate_quiz(seed=2023)
    print(quiz.to_text())
    print()
    print("Answer key (computed by the real scheduler implementations):")
    for method, mapping in quiz.answer_key().items():
        cells = ", ".join(
            f"task {tid} → {quiz.eet.machine_type_names[mid]}"
            for tid, mid in sorted(mapping.items())
        )
        print(f"  {method:<5} {cells}")
    print()

    # -- what §5 reports -------------------------------------------------------
    n = sum(s5.STUDENTS_BY_GENDER.values())
    print(f"The paper's study, {s5.LABEL}:")
    print(f"  students        : {n}")
    for group in (s5.STUDENTS_BY_GENDER, s5.STUDENTS_BY_LEVEL):
        print("  " + " / ".join(f"{k} {100 * v / n:.1f}%" for k, v in group.items()))
    print(f"  passed OS course: {100 * s5.STUDENTS_PASSED_OS / n:.1f}%")
    print(
        f"  prog. experience: mean {s5.PROGRAMMING_YEARS_MEAN} years, "
        f"median {s5.PROGRAMMING_YEARS_MEDIAN:.0f}"
    )
    print(
        f"  quiz mean       : {s5.QUIZ_PRE_MEAN} → {s5.QUIZ_POST_MEAN} of "
        f"{s5.QUIZ_MAX_POINTS} (+{s5.QUIZ_IMPROVEMENT_PCT}%)"
    )
    print()
    print(s5.survey_chart("ux").to_text())
    print()
    print(s5.survey_chart("learning").to_text())


if __name__ == "__main__":
    main()
