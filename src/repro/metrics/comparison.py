"""Cross-policy comparison utilities.

The classroom workflow (and the benchmark harness) constantly answers "which
policy wins on which metric under which conditions". :class:`PolicyComparison`
collects labelled simulation results, exposes a tidy table of any summary
metric, renders it as a bar chart, and ranks policies — with paired
replication support (every policy sees the same workloads, so differences are
differences in policy, not in luck).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from ..core.errors import ConfigurationError
from .stats import confidence_interval, summarize

if TYPE_CHECKING:  # pragma: no cover
    from ..core.simulator import SimulationResult
    from ..viz.barchart import BarChart
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

    def interval(self, label: str, metric: str) -> tuple[float, float]:
        """95% Student-t CI of the metric's mean."""
        return confidence_interval(self.metric_values(label, metric))

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

    def table(self, metrics: Sequence[str]) -> list[dict]:
        """Tidy rows: one per (policy, metric) with mean and CI bounds."""
        rows = []
        for label in self.labels:
            for metric in metrics:
                lo, hi = self.interval(label, metric)
                rows.append(
                    {
                        "policy": label,
                        "metric": metric,
                        "mean": self.mean(label, metric),
                        "ci_low": lo,
                        "ci_high": hi,
                        "n": len(self._require(label)),
                    }
                )
        return rows

    def chart(
        self, metric: str, *, title: str | None = None, scale: float = 1.0,
        unit: str = "",
    ) -> "BarChart":
        # Imported here: viz depends on core which depends on metrics; a
        # module-level import would close the cycle.
        from ..viz.barchart import BarChart

        chart = BarChart(
            title or f"policy comparison — {metric}", unit=unit
        )
        for label, value in self.ranking(metric):
            chart.add(label, scale * value)
        return chart

