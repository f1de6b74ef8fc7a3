"""The class assignment of §4 — the driver behind Figures 5, 6 and 7.

Students ran E2C on a homogeneous and a heterogeneous system under three
workload intensities (low / medium / high), saved the CSV reports, and plotted
the completion percentage of each scheduling method. This module packages
that exact workflow:

* :func:`build_homogeneous_eet` / :func:`build_heterogeneous_eet` — the two
  system configurations (same pipeline; machine heterogeneity CoV 0 vs > 0).
* :func:`run_completion_sweep` — policies × intensities × replications, each
  cell a mean completion rate, returned as an
  :class:`AssignmentFigure` (grouped bar chart + tidy rows).
* :func:`figure5` / :func:`figure6` / :func:`figure7` — the three charts with
  the paper's policy sets (immediate FCFS/MECT/MEET, batch MM/MMU/MSD).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..core.config import Scenario
from ..core.errors import ConfigurationError
from ..machines.eet import EETMatrix
from ..machines.eet_generation import generate_eet_cvb
from ..machines.machine import UNBOUNDED
from ..metrics.stats import summarize
from ..viz.barchart import GroupedBarChart

__all__ = [
    "AssignmentConfig",
    "AssignmentFigure",
    "build_homogeneous_eet",
    "build_heterogeneous_eet",
    "run_completion_sweep",
    "figure5",
    "figure6",
    "figure7",
    "IMMEDIATE_POLICIES",
    "BATCH_POLICIES",
]

#: Policy sets the assignment compares (paper §4).
IMMEDIATE_POLICIES: tuple[str, ...] = ("FCFS", "MECT", "MEET")
BATCH_POLICIES: tuple[str, ...] = ("MM", "MMU", "MSD")


@dataclass(frozen=True)
class AssignmentConfig:
    """Shared experimental parameters of the assignment runs."""

    n_task_types: int = 3
    n_machines: int = 4
    duration: float = 600.0
    replications: int = 5
    seed: int = 2023
    intensities: tuple[str, ...] = ("low", "medium", "high")
    batch_queue_capacity: int = 3
    mean_task_eet: float = 20.0
    task_cov: float = 0.4
    machine_cov: float = 0.6
    slack_factor: float = 4.0

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ConfigurationError("need at least one replication")
        if self.n_task_types < 1 or self.n_machines < 1:
            raise ConfigurationError("need at least one task type and machine")


def build_homogeneous_eet(config: AssignmentConfig = AssignmentConfig()) -> EETMatrix:
    """Homogeneous system: machine-heterogeneity CoV = 0 (identical columns)."""
    return generate_eet_cvb(
        config.n_task_types,
        config.n_machines,
        mean_task=config.mean_task_eet,
        v_task=config.task_cov,
        v_machine=0.0,
        seed=config.seed,
    )


def build_heterogeneous_eet(
    config: AssignmentConfig = AssignmentConfig(),
) -> EETMatrix:
    """Heterogeneous system: inconsistent EET with machine CoV > 0."""
    return generate_eet_cvb(
        config.n_task_types,
        config.n_machines,
        mean_task=config.mean_task_eet,
        v_task=config.task_cov,
        v_machine=config.machine_cov,
        consistency="inconsistent",
        seed=config.seed,
    )


@dataclass
class AssignmentFigure:
    """One assignment figure: the chart plus its per-replication rows."""

    title: str
    chart: GroupedBarChart
    rows: list[dict] = field(default_factory=list)

    def mean(self, intensity: str, policy: str) -> float:
        """Mean completion rate of one (intensity, policy) cell."""
        values = [
            r["completion_rate"]
            for r in self.rows
            if r["intensity"] == intensity and r["policy"] == policy
        ]
        if not values:
            raise ConfigurationError(
                f"no rows for intensity={intensity!r}, policy={policy!r}"
            )
        return summarize(values).mean

    def to_text(self) -> str:
        return self.chart.to_text()


def run_completion_sweep(
    eet: EETMatrix,
    policies: Sequence[str],
    *,
    config: AssignmentConfig = AssignmentConfig(),
    batch: bool = False,
    title: str = "completion % sweep",
) -> AssignmentFigure:
    """Run policies × intensities × replications on one system.

    Each replication draws an independent workload (derived seeds); every
    policy sees the *same* workloads for a paired comparison, exactly like
    students re-running the same trace with a different drop-down choice.
    """
    chart = GroupedBarChart(title=title, max_value=100.0, unit="%")
    rows: list[dict] = []
    machine_counts = {n: 1 for n in eet.machine_type_names}
    for intensity in config.intensities:
        for policy in policies:
            rates = []
            for rep in range(config.replications):
                scenario = Scenario(
                    eet=eet,
                    machine_counts=machine_counts,
                    scheduler=policy,
                    queue_capacity=(
                        config.batch_queue_capacity if batch else UNBOUNDED
                    ),
                    generator={
                        "duration": config.duration,
                        "intensity": intensity,
                        "specs": [
                            {"name": n, "slack_factor": config.slack_factor}
                            for n in eet.task_type_names
                        ],
                    },
                    seed=config.seed,
                    name=f"{title}:{policy}@{intensity}",
                )
                result = scenario.run(replication=rep)
                rate = result.summary.completion_rate
                rates.append(rate)
                rows.append(
                    {
                        "intensity": intensity,
                        "policy": policy,
                        "replication": rep,
                        "completion_rate": rate,
                        "total_tasks": result.summary.total_tasks,
                        "completed": result.summary.completed,
                        "cancelled": result.summary.cancelled,
                        "missed": result.summary.missed,
                        "total_energy": result.summary.total_energy,
                    }
                )
            chart.set(intensity, policy, 100.0 * summarize(rates).mean)
    return AssignmentFigure(title=title, chart=chart, rows=rows)


def figure5(config: AssignmentConfig = AssignmentConfig()) -> AssignmentFigure:
    """Fig. 5: immediate policies (FCFS/MECT/MEET) on a homogeneous system."""
    return run_completion_sweep(
        build_homogeneous_eet(config),
        IMMEDIATE_POLICIES,
        config=config,
        batch=False,
        title="Fig 5 — completion % of immediate policies, homogeneous system",
    )


def figure6(config: AssignmentConfig = AssignmentConfig()) -> AssignmentFigure:
    """Fig. 6: immediate policies (FCFS/MECT/MEET) on a heterogeneous system."""
    return run_completion_sweep(
        build_heterogeneous_eet(config),
        IMMEDIATE_POLICIES,
        config=config,
        batch=False,
        title="Fig 6 — completion % of immediate policies, heterogeneous system",
    )


def figure7(config: AssignmentConfig = AssignmentConfig()) -> AssignmentFigure:
    """Fig. 7: batch policies (MM/MMU/MSD) on a heterogeneous system."""
    return run_completion_sweep(
        build_heterogeneous_eet(config),
        BATCH_POLICIES,
        config=config,
        batch=True,
        title="Fig 7 — completion % of batch policies, heterogeneous system",
    )
