"""E-X4 — ablation: robustness to machine failures.

The paper's lineage (its refs [8], [10], [14]) is all about robustness of
heterogeneous systems; this ablation exercises the failure-injection
extension. Sweeps machine availability (via MTBF at fixed MTTR) and measures
completion rate for an immediate policy (MECT) vs a batch policy (MM):
failed machines evict their work back to the batch queue, and the batch
mapper re-plans around the outage while immediate mode has already committed.
"""


from repro.core.config import Scenario
from repro.education.assignment import AssignmentConfig, build_heterogeneous_eet
from repro.machines.failures import FailureModel
from repro.metrics.stats import summarize
from repro.viz.barchart import GroupedBarChart

#: (label, mtbf) at fixed mttr=15 — availabilities 1.0, 0.95, 0.87, 0.77.
MTBF_LEVELS = (
    ("no failures", None),
    ("mtbf=300", 300.0),
    ("mtbf=100", 100.0),
    ("mtbf=50", 50.0),
)
MTTR = 15.0
REPLICATIONS = 5


def run_sweep():
    config = AssignmentConfig(duration=500.0, replications=REPLICATIONS, seed=2023)
    eet = build_heterogeneous_eet(config)
    rows: dict[str, dict[str, float]] = {}
    for label, mtbf in MTBF_LEVELS:
        per_policy = {}
        for policy, capacity in (("MECT", float("inf")), ("MM", 3)):
            rates = []
            for rep in range(REPLICATIONS):
                scenario = Scenario(
                    eet=eet,
                    machine_counts={n: 1 for n in eet.machine_type_names},
                    scheduler=policy,
                    queue_capacity=capacity,
                    generator={"duration": config.duration, "intensity": 1.2},
                    failure_model=(
                        None if mtbf is None
                        else FailureModel(mtbf=mtbf, mttr=MTTR)
                    ),
                    seed=config.seed,
                    name=f"robust-{label}-{policy}",
                )
                rates.append(
                    scenario.run(replication=rep).summary.completion_rate
                )
            per_policy[policy] = summarize(rates).mean
        rows[label] = per_policy
    return rows


def test_bench_ablation_robustness(results_dir):
    rows = run_sweep()

    chart = GroupedBarChart(
        "ablation — completion % under machine failures (mttr=15 s)",
        max_value=100.0,
        unit="%",
    )
    for label, per_policy in rows.items():
        for policy, rate in per_policy.items():
            chart.set(label, policy, 100.0 * rate)
    (results_dir / "ablation_robustness.txt").write_text(
        chart.to_text() + "\n", encoding="utf-8"
    )
    chart.to_csv(results_dir / "ablation_robustness.csv")

    # Shape 1: failures cost completion, monotonically in failure rate.
    for policy in ("MECT", "MM"):
        series = [rows[label][policy] for label, _ in MTBF_LEVELS]
        assert series[0] >= series[-1]
        assert series[0] > series[-1] + 0.02  # the knob matters

    # Shape 2: under heavy failures the batch mapper absorbs outages at
    # least as well as the immediate one (it re-plans evicted work).
    assert rows["mtbf=50"]["MM"] >= rows["mtbf=50"]["MECT"] - 0.05
