"""E-X5 — ablation: scheduling overhead, immediate vs batch.

§3: "Typically, immediate mode scheduling methods impose a lower overhead".
This ablation charges every scheduling pass per examined (pending × machine)
cell and sweeps the cost: immediate MECT examines one task per pass while
batch MM re-examines its whole backlog, so rising decision costs erode the
batch mapper's quality advantage — the trade-off behind the paper's
statement, made quantitative.
"""


from repro.core.config import Scenario
from repro.education.assignment import AssignmentConfig, build_heterogeneous_eet
from repro.metrics.stats import summarize
from repro.viz.barchart import GroupedBarChart

PER_CELL_LEVELS = (0.0, 0.05, 0.2, 0.5)
REPLICATIONS = 5


def run_sweep():
    config = AssignmentConfig(
        duration=500.0, replications=REPLICATIONS, seed=2023
    )
    eet = build_heterogeneous_eet(config)
    rows: dict[float, dict[str, float]] = {}
    for per_cell in PER_CELL_LEVELS:
        per_policy = {}
        for policy, capacity in (("MECT", float("inf")), ("MM", 3)):
            rates = []
            for rep in range(REPLICATIONS):
                scenario = Scenario(
                    eet=eet,
                    machine_counts={n: 1 for n in eet.machine_type_names},
                    scheduler=policy,
                    queue_capacity=capacity,
                    generator={"duration": config.duration, "intensity": 1.5},
                    scheduling_overhead=(
                        None if per_cell == 0.0 else {"per_cell": per_cell}
                    ),
                    seed=config.seed,
                    name=f"overhead-{per_cell}-{policy}",
                )
                rates.append(
                    scenario.run(replication=rep).summary.completion_rate
                )
            per_policy[policy] = summarize(rates).mean
        rows[per_cell] = per_policy
    return rows


def test_bench_ablation_overhead(results_dir):
    rows = run_sweep()

    chart = GroupedBarChart(
        "ablation — completion % vs per-cell scheduling overhead "
        "(intensity 1.5)",
        max_value=100.0,
        unit="%",
    )
    for per_cell, per_policy in rows.items():
        for policy, rate in per_policy.items():
            chart.set(f"per_cell={per_cell}", policy, 100.0 * rate)
    (results_dir / "ablation_overhead.txt").write_text(
        chart.to_text() + "\n", encoding="utf-8"
    )
    chart.to_csv(results_dir / "ablation_overhead.csv")

    # Shape 1: free decisions — the batch mapper is at least competitive.
    assert rows[0.0]["MM"] >= rows[0.0]["MECT"] - 0.05
    # Shape 2: rising decision cost hurts the batch mapper more (it pays per
    # backlog cell, immediate pays per single task): the MM-minus-MECT gap
    # shrinks (or flips) as per_cell grows.
    gap_free = rows[0.0]["MM"] - rows[0.0]["MECT"]
    gap_costly = rows[0.5]["MM"] - rows[0.5]["MECT"]
    assert gap_costly < gap_free
    # Shape 3: heavy overhead visibly damages the batch policy itself.
    assert rows[0.5]["MM"] < rows[0.0]["MM"]
