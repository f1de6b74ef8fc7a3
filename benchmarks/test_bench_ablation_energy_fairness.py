"""E-X3 — ablation: energy and fairness across batch policies.

Exercises the energy model (§3 feature iv) and the ELARE/FELARE policies on
the edge-AI system (accelerators with per-task-type wattage): total energy,
energy per completed task, and Jain's fairness index across task types, for
MM / MSD / ELARE / FELARE. Shapes asserted: the energy-aware policies do not
burn more energy per completed task than deadline-only Min-Min, and FELARE's
fairness index is at least ELARE's (that is its whole point).
"""


from repro.metrics.stats import summarize
from repro.scenarios import edge_ai
from repro.viz.barchart import GroupedBarChart

POLICIES = ("MM", "MSD", "ELARE", "FELARE")
REPLICATIONS = 5


def run_sweep():
    rows = {}
    for policy in POLICIES:
        completion, fairness, energy_per_task = [], [], []
        for rep in range(REPLICATIONS):
            result = edge_ai(
                scheduler=policy, intensity=2.0, duration=500.0
            ).run(replication=rep)
            s = result.summary
            completion.append(s.completion_rate)
            fairness.append(s.fairness_index)
            energy_per_task.append(s.energy_per_completed_task)
        rows[policy] = {
            "completion": summarize(completion).mean,
            "fairness": summarize(fairness).mean,
            "energy_per_task": summarize(energy_per_task).mean,
        }
    return rows


def test_bench_ablation_energy_fairness(results_dir):
    rows = run_sweep()

    chart = GroupedBarChart(
        "ablation — energy & fairness on the edge-AI system (intensity 2.0)",
        unit="",
    )
    text_rows = ["policy    completion%   fairness   J/completed-task"]
    for policy, metrics in rows.items():
        chart.set("completion %", policy, 100.0 * metrics["completion"])
        chart.set("fairness ×100", policy, 100.0 * metrics["fairness"])
        chart.set("J per task", policy, metrics["energy_per_task"])
        text_rows.append(
            f"{policy:<9} {100 * metrics['completion']:10.1f}   "
            f"{metrics['fairness']:8.3f}   {metrics['energy_per_task']:10.2f}"
        )
    (results_dir / "ablation_energy_fairness.txt").write_text(
        chart.to_text() + "\n\n" + "\n".join(text_rows) + "\n",
        encoding="utf-8",
    )
    chart.to_csv(results_dir / "ablation_energy_fairness.csv")

    # Shape 1: energy-aware mapping does not cost more Joules per completed
    # task than deadline-only Min-Min (small tolerance for noise).
    assert rows["ELARE"]["energy_per_task"] <= rows["MM"]["energy_per_task"] * 1.05
    # Shape 2: fairness pressure works — FELARE ≥ ELARE on Jain's index.
    assert rows["FELARE"]["fairness"] >= rows["ELARE"]["fairness"] - 0.02
    # Shape 3: everything still completes a sane share of the overload.
    assert all(m["completion"] > 0.3 for m in rows.values())
