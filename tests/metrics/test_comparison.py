"""Policy comparison utilities."""

import pytest

from repro.core.errors import ConfigurationError
from repro.metrics.comparison import PolicyComparison


@pytest.fixture(scope="module")
def comparison(request):
    # Build from a module-local scenario to keep this fixture self-contained.
    import numpy as np

    from repro.core.config import Scenario
    from repro.machines.eet import EETMatrix

    eet = EETMatrix(
        np.array([[4.0, 10.0], [9.0, 3.0], [5.0, 6.0]]),
        ["T1", "T2", "T3"],
        ["M1", "M2"],
    )
    scenario = Scenario(
        eet=eet,
        machine_counts={"M1": 1, "M2": 1},
        scheduler="MECT",
        generator={"duration": 150.0, "intensity": "high"},
        seed=4,
    )
    # Replication i of every policy runs the same derived workload.
    comparison = PolicyComparison()
    for policy in ("FCFS", "MECT", "RANDOM"):
        for rep in range(3):
            result = scenario.with_scheduler(policy).run(replication=rep)
            comparison.add(policy, result)
    return comparison


class TestPolicyComparison:
    def test_labels(self, comparison):
        assert comparison.labels == ["FCFS", "MECT", "RANDOM"]

    def test_replication_counts(self, comparison):
        for label in comparison.labels:
            assert len(comparison.metric_values(label, "completion_rate")) == 3

    def test_mean_in_unit_interval(self, comparison):
        for label in comparison.labels:
            assert 0.0 <= comparison.mean(label, "completion_rate") <= 1.0

    def test_ranking_sorted(self, comparison):
        ranking = comparison.ranking("completion_rate")
        values = [v for _, v in ranking]
        assert values == sorted(values, reverse=True)

    def test_winner_beats_random(self, comparison):
        # On a contended heterogeneous system the winner shouldn't be RANDOM.
        assert comparison.winner("completion_rate") in ("FCFS", "MECT")

    def test_unknown_label_rejected(self, comparison):
        with pytest.raises(ConfigurationError):
            comparison.mean("NOPE", "completion_rate")

    def test_unknown_metric_rejected(self, comparison):
        with pytest.raises(ConfigurationError):
            comparison.mean("MECT", "charisma")

    def test_empty_winner_rejected(self):
        with pytest.raises(ConfigurationError):
            PolicyComparison().winner("completion_rate")

    def test_paired_replications(self, comparison):
        """Replication i sees identical workloads across policies."""
        fcfs = comparison.results["FCFS"]
        mect = comparison.results["MECT"]
        for a, b in zip(fcfs, mect):
            assert a.summary.total_tasks == b.summary.total_tasks

