"""E-F7 — Figure 7: completion % of batch policies on a heterogeneous
system at low/medium/high intensity (MM, MMU, MSD; machine queue size 3).

Paper shapes asserted: monotone decline with intensity, and the §4 lesson
that batch policies outperform the best immediate policy on a saturated
heterogeneous system (cross-checked against an MECT run on the same system).
"""

from repro.education.assignment import (
    build_heterogeneous_eet,
    run_completion_sweep,
)


def test_bench_figure7(results_dir, assignment_config):
    eet = build_heterogeneous_eet(assignment_config)

    figure = run_completion_sweep(
        eet,
        ("MM", "MMU", "MSD"),
        config=assignment_config,
        batch=True,
        title="Fig 7 — completion % of batch policies, heterogeneous system",
    )

    # The immediate-mode reference for the batch-vs-immediate lesson.
    immediate = run_completion_sweep(
        eet, ("MECT",), config=assignment_config, batch=False,
        title="immediate reference",
    )

    out = figure.to_text() + "\n\nraw cell means:\n"
    for intensity in ("low", "medium", "high"):
        for policy in ("MM", "MMU", "MSD"):
            out += f"  {intensity:<7} {policy:<4} {100 * figure.mean(intensity, policy):6.2f}%\n"
        out += (
            f"  {intensity:<7} MECT(immediate reference) "
            f"{100 * immediate.mean(intensity, 'MECT'):6.2f}%\n"
        )
    (results_dir / "figure7_heterogeneous_batch.txt").write_text(
        out, encoding="utf-8"
    )
    figure.chart.to_csv(results_dir / "figure7_heterogeneous_batch.csv")

    # Shape 1: monotone decline with intensity.
    for policy in ("MM", "MMU", "MSD"):
        assert figure.mean("low", policy) >= figure.mean("medium", policy) - 0.02
        assert figure.mean("medium", policy) >= figure.mean("high", policy) - 0.02

    # Shape 2: the best batch policy beats the immediate reference when the
    # system is oversubscribed (§4: "batch policies outperform immediate
    # scheduling policies for heterogeneous systems").
    best_batch_high = max(
        figure.mean("high", p) for p in ("MM", "MMU", "MSD")
    )
    assert best_batch_high > immediate.mean("high", "MECT")
