"""E-F6 — Figure 6: completion % of immediate policies on a heterogeneous
system at low/medium/high intensity (FCFS, MECT, MEET).

Paper shape asserted: monotone decline with intensity; MECT beats FCFS at
the medium (saturation) point — the §4 learning outcome — because FCFS is
blind to execution-time heterogeneity.
"""

from repro.education.assignment import (
    build_heterogeneous_eet,
    run_completion_sweep,
)


def test_bench_figure6(results_dir, assignment_config):
    eet = build_heterogeneous_eet(assignment_config)

    figure = run_completion_sweep(
        eet,
        ("FCFS", "MECT", "MEET"),
        config=assignment_config,
        batch=False,
        title="Fig 6 — completion % of immediate policies, heterogeneous system",
    )

    out = figure.to_text() + "\n\nraw cell means:\n"
    for intensity in ("low", "medium", "high"):
        for policy in ("FCFS", "MECT", "MEET"):
            out += f"  {intensity:<7} {policy:<5} {100 * figure.mean(intensity, policy):6.2f}%\n"
    (results_dir / "figure6_heterogeneous_immediate.txt").write_text(
        out, encoding="utf-8"
    )
    figure.chart.to_csv(results_dir / "figure6_heterogeneous_immediate.csv")

    # Shape 1: monotone decline with intensity.
    for policy in ("FCFS", "MECT", "MEET"):
        assert figure.mean("low", policy) >= figure.mean("medium", policy) - 0.02
        assert figure.mean("medium", policy) >= figure.mean("high", policy) - 0.02
        assert figure.mean("low", policy) > figure.mean("high", policy)

    # Shape 2: MECT > FCFS once the system saturates (the §4 lesson).
    assert figure.mean("medium", "MECT") > figure.mean("medium", "FCFS")

    # Shape 3: everyone is fine when under-subscribed.
    assert figure.mean("low", "MECT") > 0.95
    assert figure.mean("low", "FCFS") > 0.95
