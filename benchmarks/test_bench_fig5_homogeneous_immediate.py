"""E-F5 — Figure 5: completion % of immediate policies on a homogeneous
system at low/medium/high intensity (FCFS, MECT, MEET).

Paper shape asserted: completion declines monotonically with intensity for
every policy, and FCFS ≈ MECT on a homogeneous system (EET awareness buys
nothing when all machines are identical) while load-blind MEET collapses.
"""


from repro.education.assignment import build_homogeneous_eet, run_completion_sweep


def test_bench_figure5(results_dir, assignment_config):
    eet = build_homogeneous_eet(assignment_config)

    figure = run_completion_sweep(
        eet,
        ("FCFS", "MECT", "MEET"),
        config=assignment_config,
        batch=False,
        title="Fig 5 — completion % of immediate policies, homogeneous system",
    )

    out = figure.to_text() + "\n\nraw cell means:\n"
    for intensity in ("low", "medium", "high"):
        for policy in ("FCFS", "MECT", "MEET"):
            out += f"  {intensity:<7} {policy:<5} {100 * figure.mean(intensity, policy):6.2f}%\n"
    (results_dir / "figure5_homogeneous_immediate.txt").write_text(
        out, encoding="utf-8"
    )
    figure.chart.to_csv(results_dir / "figure5_homogeneous_immediate.csv")

    # Shape 1: monotone decline with intensity, every policy.
    for policy in ("FCFS", "MECT", "MEET"):
        low = figure.mean("low", policy)
        high = figure.mean("high", policy)
        assert low >= figure.mean("medium", policy) - 0.02
        assert figure.mean("medium", policy) >= high - 0.02
        assert low > high

    # Shape 2: FCFS ≈ MECT on homogeneous hardware (within 5 points).
    for intensity in ("low", "medium", "high"):
        assert abs(
            figure.mean(intensity, "FCFS") - figure.mean(intensity, "MECT")
        ) < 0.05

    # Shape 3: the load-blind MEET (fixed argmin tie-break) funnels all work
    # to one machine and collapses relative to the load-aware policies.
    assert figure.mean("medium", "MEET") < figure.mean("medium", "MECT")
