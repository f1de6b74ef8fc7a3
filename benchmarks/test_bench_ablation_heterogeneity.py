"""E-X2 — ablation: heterogeneity degree and consistency class.

Sweeps the CVB machine-heterogeneity coefficient (v_machine ∈ {0, 0.25, 0.5,
0.75}) and the consistency class, measuring the FCFS→MECT completion gap.
The paper's pedagogy predicts the gap grows with heterogeneity: on a
homogeneous system EET awareness is worthless; the more machines differ, the
more an EET-aware mapper wins.
"""


from repro.core.config import Scenario
from repro.machines.eet_generation import generate_eet_cvb
from repro.metrics.stats import summarize
from repro.viz.barchart import GroupedBarChart

V_MACHINES = (0.0, 0.25, 0.5, 0.75)
REPLICATIONS = 5


def run_sweep():
    rows = {}
    for v_machine in V_MACHINES:
        eet = generate_eet_cvb(
            3, 4, mean_task=20.0, v_task=0.4, v_machine=v_machine, seed=2023
        )
        per_policy = {}
        for policy in ("FCFS", "MECT"):
            rates = []
            for rep in range(REPLICATIONS):
                scenario = Scenario(
                    eet=eet,
                    machine_counts={n: 1 for n in eet.machine_type_names},
                    scheduler=policy,
                    generator={"duration": 500.0, "intensity": 1.2},
                    seed=7,
                    name=f"het-{v_machine}-{policy}",
                )
                rates.append(
                    scenario.run(replication=rep).summary.completion_rate
                )
            per_policy[policy] = summarize(rates).mean
        rows[v_machine] = per_policy
    return rows


def run_consistency_compare():
    out = {}
    for consistency in ("inconsistent", "consistent", "partially_consistent"):
        eet = generate_eet_cvb(
            3, 4, mean_task=20.0, v_task=0.4, v_machine=0.6,
            consistency=consistency, seed=2023,
        )
        scenario = Scenario(
            eet=eet,
            machine_counts={n: 1 for n in eet.machine_type_names},
            scheduler="MECT",
            generator={"duration": 500.0, "intensity": 1.2},
            seed=7,
            name=f"consistency-{consistency}",
        )
        rates = [
            scenario.run(replication=rep).summary.completion_rate
            for rep in range(REPLICATIONS)
        ]
        out[consistency] = summarize(rates).mean
    return out


def test_bench_ablation_heterogeneity(results_dir):
    rows = run_sweep()
    consistency = run_consistency_compare()

    chart = GroupedBarChart(
        "ablation — completion % vs machine heterogeneity (CVB v_machine)",
        max_value=100.0,
        unit="%",
    )
    for v_machine, per_policy in rows.items():
        for policy, rate in per_policy.items():
            chart.set(f"v_machine={v_machine}", policy, 100.0 * rate)
    text = chart.to_text() + "\n\nMECT by consistency class (v_machine=0.6):\n"
    for name, rate in consistency.items():
        text += f"  {name:<22} {100 * rate:6.2f}%\n"
    (results_dir / "ablation_heterogeneity.txt").write_text(
        text, encoding="utf-8"
    )
    chart.to_csv(results_dir / "ablation_heterogeneity.csv")

    # Shape 1: on the homogeneous system the FCFS→MECT gap is negligible.
    assert abs(rows[0.0]["MECT"] - rows[0.0]["FCFS"]) < 0.03
    # Shape 2: at strong heterogeneity MECT's edge is material.
    assert rows[0.75]["MECT"] > rows[0.75]["FCFS"] + 0.02
    # Shape 3: the gap at 0.75 exceeds the gap at 0.
    gap_hi = rows[0.75]["MECT"] - rows[0.75]["FCFS"]
    gap_lo = rows[0.0]["MECT"] - rows[0.0]["FCFS"]
    assert gap_hi > gap_lo
    # Consistency classes all produce valid rates.
    assert all(0.0 < r <= 1.0 for r in consistency.values())
