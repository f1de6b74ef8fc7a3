"""Cross-policy comparison utilities.

The classroom workflow (and the benchmark harness) constantly answers "which
policy wins on which metric under which conditions". :class:`PolicyComparison`
collects labelled simulation results, averages any summary metric over the
replications and ranks policies — with paired replication support (every
policy sees the same workloads, so differences are differences in policy,
not in luck).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core.errors import ConfigurationError
from .stats import summarize

if TYPE_CHECKING:  # pragma: no cover
    from ..core.simulator import SimulationResult
    from .collector import SummaryMetrics

__all__ = ["PolicyComparison"]


def _summary_of(result):
    """Accept a full SimulationResult or a bare SummaryMetrics.

    Campaign workers ship only summaries back across process boundaries;
    interactive code adds full results. Both feed the same comparison.
    """
    return getattr(result, "summary", result)


@dataclass
class PolicyComparison:
    """Labelled result sets, one list of replications per policy."""

    results: dict[str, list["SimulationResult | SummaryMetrics"]] = field(
        default_factory=dict
    )

    def add(
        self, label: str, result: "SimulationResult | SummaryMetrics"
    ) -> None:
        self.results.setdefault(label, []).append(result)

    @property
    def labels(self) -> list[str]:
        return list(self.results)

    def _require(self, label: str) -> list["SimulationResult"]:
        if label not in self.results:
            raise ConfigurationError(
                f"no results for {label!r}; have {self.labels}"
            )
        return self.results[label]

    def metric_values(self, label: str, metric: str) -> list[float]:
        """Per-replication values of a SummaryMetrics attribute."""
        values = []
        for result in self._require(label):
            summary = _summary_of(result)
            if not hasattr(summary, metric):
                raise ConfigurationError(
                    f"summary has no metric {metric!r}"
                )
            values.append(float(getattr(summary, metric)))
        return values

    def mean(self, label: str, metric: str) -> float:
        return summarize(self.metric_values(label, metric)).mean

    def ranking(
        self, metric: str, *, descending: bool = True
    ) -> list[tuple[str, float]]:
        """Policies sorted by mean metric (descending = higher is better)."""
        rows = [(label, self.mean(label, metric)) for label in self.labels]
        return sorted(rows, key=lambda r: r[1], reverse=descending)

    def winner(self, metric: str, *, descending: bool = True) -> str:
        if not self.results:
            raise ConfigurationError("comparison holds no results")
        return self.ranking(metric, descending=descending)[0][0]
