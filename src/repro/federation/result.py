"""Results of a federated simulation: per-cluster, global, and offload views.

A :class:`repro.core.simulator.SimulationResult` (``summary``, ``energy``,
``reports``, ``events_processed``, ``end_time``, ``scheduler_name``,
``completion_rate``, the lazy record rows), so campaign runners, the CLI
and the benchmark harness consume federated runs unchanged — plus the
federation-only views: per-cluster summaries, the gateway routing matrix,
and WAN/offload accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..core.simulator import SimulationResult
from ..metrics.collector import SummaryMetrics
from ..metrics.rollup import MigrationStats, OffloadEnergySplit, TreeRollup
from ..net.wan import LinkUsage

__all__ = ["FederatedSimulationResult"]


@dataclass(frozen=True)
class FederatedSimulationResult(SimulationResult):
    """Everything a finished federated run produced.

    ``summary``, ``energy`` and the record rows span every cluster.

    ``wan_links`` is the per-physical-link traffic + energy account
    (:class:`~repro.net.wan.LinkUsage`, keyed by link label such as
    ``"edge<->cloud"``); ``energy_split`` is the edge-vs-cloud
    energy-per-completed-task trade-off
    (:class:`~repro.metrics.rollup.OffloadEnergySplit`). Machine energy
    (``summary.total_energy``, ``energy``) and WAN energy
    (``wan_energy_total``) are disjoint accounts;
    ``total_energy_with_wan`` is their sum.

    ``migrations`` is the mid-queue migration matrix (source × destination
    eviction counters, empty when migration is off) and
    ``migration_stats`` its conservation + energy account
    (:class:`~repro.metrics.rollup.MigrationStats`): every evicted task is
    either delivered or cancelled in flight, and completed migrated tasks
    carry an execution + migration-WAN energy split.
    """

    per_cluster: dict[str, SummaryMetrics]
    routing: dict[str, dict[str, int]]
    offloaded: int
    wan_time_total: float
    gateway_name: str
    wan_links: dict[str, LinkUsage] = field(default_factory=dict)
    energy_split: OffloadEnergySplit = field(
        default_factory=lambda: OffloadEnergySplit(0, 0, 0.0, 0.0, 0.0)
    )
    migrations: dict[str, dict[str, int]] = field(default_factory=dict)
    migration_stats: MigrationStats = field(default_factory=MigrationStats)
    #: Per-level metric rollup of a *hierarchical* run
    #: (:class:`~repro.metrics.rollup.TreeRollup`); ``None`` on flat
    #: federations, whose text/report output stays byte-identical.
    tree: TreeRollup | None = field(default=None, compare=False)

    @property
    def offload_rate(self) -> float:
        """Fraction of routed tasks sent to a non-origin cluster."""
        total = self.summary.total_tasks
        return self.offloaded / total if total else 0.0

    # -- WAN energy views ---------------------------------------------------------

    @property
    def wan_energy_total(self) -> float:
        """Joules attributable to the WAN links (transfer + active + idle)."""
        return sum(usage.total_energy for usage in self.wan_links.values())

    @property
    def total_energy_with_wan(self) -> float:
        """Machine energy plus WAN link energy — the federation's bill."""
        return self.summary.total_energy + self.wan_energy_total

    @property
    def energy_per_completed_task(self) -> float:
        """Total (machine + WAN) joules per completed task."""
        completed = self.summary.completed
        return self.total_energy_with_wan / completed if completed else 0.0

    # -- rendering ----------------------------------------------------------------

    def to_text(self) -> str:
        """Per-cluster + global summaries, offload matrix, WAN links, energy."""
        lines = [
            "== Federation Summary ==",
            f"gateway: {self.gateway_name}    "
            f"local policy: {self.scheduler_name}    "
            f"clusters: {len(self.per_cluster)}",
            "",
            _cluster_table(self.per_cluster, self.summary),
            "",
            _routing_table_text(self.routing),
            f"offloaded: {self.offloaded}/{self.summary.total_tasks} tasks "
            f"({self.offload_rate:.1%}), total WAN transfer time "
            f"{self.wan_time_total:.2f} s",
        ]
        stats = self.migration_stats
        if stats.attempted:
            lines += [
                "",
                _routing_table_text(self.migrations, corner="migrated > dst"),
                f"migrated: {stats.attempted} evictions "
                f"({stats.delivered} delivered, "
                f"{stats.cancelled_in_flight} cancelled in flight); "
                f"{stats.completed} completed after migrating "
                f"at {stats.energy_per_migrated_task:.2f} J/task "
                f"(incl. {stats.migration_wan_energy:.1f} J migration WAN)",
            ]
        if self.wan_links:
            lines += ["", _wan_table(self.wan_links, self.end_time)]
        split = self.energy_split
        if split.local_completed or split.offloaded_completed:
            lines += [
                "",
                "energy per completed task (machine busy J, + WAN payload J "
                "for offloads):",
                f"  local     {split.local_completed:>6} tasks  "
                f"{split.energy_per_local_task:>10.2f} J/task",
                f"  offloaded {split.offloaded_completed:>6} tasks  "
                f"{split.energy_per_offloaded_task:>10.2f} J/task  "
                f"(incl. {split.wan_transfer_energy:.1f} J WAN transfer)",
            ]
        return "\n".join(lines)


def _cluster_table(
    per_cluster: Mapping[str, SummaryMetrics], total: SummaryMetrics
) -> str:
    header = (
        f"{'cluster':<14} {'tasks':>7} {'completed':>9} {'rate':>7} "
        f"{'on-time':>8} {'makespan':>9} {'energy J':>11} {'util':>6}"
    )
    rows = [header, "-" * len(header)]
    for name, summary in per_cluster.items():
        rows.append(_summary_row(name, summary))
    rows.append("-" * len(header))
    rows.append(_summary_row("GLOBAL", total))
    return "\n".join(rows)


def _summary_row(label: str, s: SummaryMetrics) -> str:
    return (
        f"{label:<14} {s.total_tasks:>7} {s.completed:>9} "
        f"{s.completion_rate:>7.1%} {s.on_time_rate:>8.1%} "
        f"{s.makespan:>9.1f} {s.total_energy:>11.1f} "
        f"{s.mean_utilization:>6.1%}"
    )


def _wan_table(wan_links: Mapping[str, LinkUsage], end_time: float) -> str:
    header = (
        f"{'WAN link':<18} {'xfers':>6} {'lost':>5} {'MB':>9} "
        f"{'busy s':>8} {'util':>6} {'xfer J':>9} {'link J':>9}"
    )
    rows = [header, "-" * len(header)]
    for label, usage in wan_links.items():
        rows.append(
            f"{label:<18} {usage.delivered:>6} {usage.abandoned:>5} "
            f"{usage.mb_delivered:>9.1f} {usage.busy_time:>8.2f} "
            f"{usage.utilization(end_time):>6.1%} "
            f"{usage.transfer_energy:>9.1f} {usage.total_energy:>9.1f}"
        )
    return "\n".join(rows)


def _routing_table_text(
    routing: Mapping[str, Mapping[str, int]], corner: str = "origin > dst"
) -> str:
    names = list(routing)
    width = max([len(n) for n in names] + [7])
    header = (
        f"{corner:<{width + 2}} " + " ".join(f"{n:>{width}}" for n in names)
    )
    lines = [header]
    for src in names:
        lines.append(
            f"{src:<{width + 2}} "
            + " ".join(f"{routing[src][dst]:>{width}}" for dst in names)
        )
    return "\n".join(lines)
