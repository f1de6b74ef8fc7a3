"""Cross-cluster metric rollups for federated simulations.

A federated run produces one :class:`~repro.metrics.collector.MetricsCollector`
per cluster shard. This module folds them into the global view: an aggregate
:class:`~repro.metrics.collector.SummaryMetrics` over every task and machine
in the federation (computed by the exact single-pass aggregation a
single-cluster run uses, so a 1-cluster federation matches its standalone
twin bit-for-bit), a merged energy breakdown, and the offload accounting
derived from the gateway's routing matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence

from ..tasks.task import TaskStatus
from .collector import MetricsCollector, SummaryMetrics, summarize
from .energy import EnergyBreakdown, energy_breakdown

if TYPE_CHECKING:  # pragma: no cover
    from ..machines.machine import Machine
    from ..net.topology import InterClusterTopology
    from ..tasks.task import Task

__all__ = [
    "global_summary",
    "global_energy",
    "routing_table",
    "OffloadEnergySplit",
    "offload_energy_split",
    "MigrationStats",
    "migration_stats",
    "TreeNodeStats",
    "TreeRollup",
]


def global_summary(
    collectors: Sequence[MetricsCollector],
    machines: Sequence["Machine"],
    *,
    end_time: float,
) -> SummaryMetrics:
    """Aggregate SummaryMetrics over every shard's tasks and machines.

    The shards' recorded tasks go through the same :func:`summarize` pass a
    single cluster's summary uses. Shard task ids must be disjoint: a task
    recorded by two collectors is a conservation bug and raises
    :class:`~repro.core.errors.ReportError`.
    """
    tasks = [task for collector in collectors for task in collector.tasks()]
    return summarize(tasks, machines, end_time=end_time)


def global_energy(machines: Sequence["Machine"]) -> EnergyBreakdown:
    """Energy decomposition across every machine of the federation."""
    return energy_breakdown(machines)  # type: ignore[arg-type]


def routing_table(
    names: Sequence[str], matrix: Sequence[Sequence[int]]
) -> dict[str, dict[str, int]]:
    """Name-keyed view of the gateway's origin x destination counters."""
    return {
        src: {dst: int(matrix[i][j]) for j, dst in enumerate(names)}
        for i, src in enumerate(names)
    }


@dataclass(frozen=True)
class OffloadEnergySplit:
    """The edge-vs-cloud energy trade-off of one federated run.

    Completed tasks are split by whether the gateway kept them at their
    origin cluster (*local*) or shipped them across the WAN (*offloaded*).
    Task energy is the machine busy energy attributed to each task's
    execution; offloaded tasks additionally carry the J/MB payload cost of
    their WAN crossing. ``energy_per_local_task`` vs
    ``energy_per_offloaded_task`` is the number an offloading study
    optimises: when the offloaded figure (execution on the fast remote
    machines *plus* the transfer) beats the local one, shipping work out
    saves energy per unit of work — the ELARE/FELARE question, federated.
    """

    local_completed: int
    offloaded_completed: int
    local_task_energy: float        # J: execution energy of local tasks
    offloaded_task_energy: float    # J: execution energy of offloaded tasks
    wan_transfer_energy: float      # J: payload cost of their WAN crossings

    @property
    def energy_per_local_task(self) -> float:
        """Mean execution joules per locally-completed task."""
        if not self.local_completed:
            return 0.0
        return self.local_task_energy / self.local_completed

    @property
    def energy_per_offloaded_task(self) -> float:
        """Mean execution + WAN joules per offloaded completed task."""
        if not self.offloaded_completed:
            return 0.0
        return (
            self.offloaded_task_energy + self.wan_transfer_energy
        ) / self.offloaded_completed

    def as_dict(self) -> dict[str, float]:
        """Flat numeric form for campaign tables and reports."""
        return {
            "local_completed": float(self.local_completed),
            "offloaded_completed": float(self.offloaded_completed),
            "local_task_energy": self.local_task_energy,
            "offloaded_task_energy": self.offloaded_task_energy,
            "wan_transfer_energy": self.wan_transfer_energy,
            "energy_per_local_task": self.energy_per_local_task,
            "energy_per_offloaded_task": self.energy_per_offloaded_task,
        }


@dataclass(frozen=True)
class MigrationStats:
    """Conservation + energy account of mid-queue migrations in one run.

    Every evicted task is *attempted*; it then either reaches its
    destination's batch queue (*delivered*) or its deadline fires while it
    is still in the WAN — queued for the link, serialising, or propagating
    (*cancelled_in_flight*). ``attempted == delivered +
    cancelled_in_flight`` holds at the end of every finished run: a
    migrating task cannot be lost between clusters.

    ``completed`` counts migrated tasks that eventually COMPLETED (at any
    cluster); ``migrated_task_energy`` is their execution energy and
    ``migration_wan_energy`` the payload joules of their migration hops —
    together the migrated half of the energy-per-completed-task question:
    did moving the work pay for the trip?
    """

    attempted: int = 0
    delivered: int = 0
    cancelled_in_flight: int = 0
    completed: int = 0
    migrated_task_energy: float = 0.0
    migration_wan_energy: float = 0.0

    @property
    def delivery_rate(self) -> float:
        """Fraction of evicted tasks that survived the WAN crossing."""
        return self.delivered / self.attempted if self.attempted else 0.0

    @property
    def completion_rate(self) -> float:
        """Fraction of evicted tasks that eventually completed."""
        return self.completed / self.attempted if self.attempted else 0.0

    @property
    def energy_per_migrated_task(self) -> float:
        """Mean execution + migration-WAN joules per completed migrated task."""
        if not self.completed:
            return 0.0
        return (
            self.migrated_task_energy + self.migration_wan_energy
        ) / self.completed

    def as_dict(self) -> dict[str, float]:
        """Flat numeric form for campaign tables and reports."""
        return {
            "migrations_attempted": float(self.attempted),
            "migrations_delivered": float(self.delivered),
            "migrations_cancelled_in_flight": float(self.cancelled_in_flight),
            "migrated_completed": float(self.completed),
            "migrated_task_energy": self.migrated_task_energy,
            "migration_wan_energy": self.migration_wan_energy,
            "migration_delivery_rate": self.delivery_rate,
            "migration_completion_rate": self.completion_rate,
            "energy_per_migrated_task": self.energy_per_migrated_task,
        }


def migration_stats(
    tasks: Sequence["Task"],
    *,
    attempted: int,
    delivered: int,
    cancelled_in_flight: int,
    wan_energy_by_task: Mapping[int, float],
) -> MigrationStats:
    """Fold per-task outcomes into the run's :class:`MigrationStats`.

    ``wan_energy_by_task`` maps task id → payload joules charged for that
    task's migration hops (accumulated by the rebalancer as each migration
    finishes serialising); only completed migrated tasks contribute to the
    energy split, mirroring :func:`offload_energy_split`.
    """
    completed = 0
    exec_e = wan_e = 0.0
    for task in tasks:
        if task.migrations and task.status is TaskStatus.COMPLETED:
            completed += 1
            exec_e += task.energy or 0.0
            wan_e += wan_energy_by_task.get(task.id, 0.0)
    return MigrationStats(
        attempted=attempted,
        delivered=delivered,
        cancelled_in_flight=cancelled_in_flight,
        completed=completed,
        migrated_task_energy=exec_e,
        migration_wan_energy=wan_e,
    )


def offload_energy_split(
    tasks: Sequence["Task"],
    names: Sequence[str],
    topology: "InterClusterTopology",
    *,
    energy_fn: Callable[[int, int, float], float] | None = None,
) -> OffloadEnergySplit:
    """Split completed-task energy into local vs offloaded accounts.

    The WAN share of an offloaded task is exact: a completed task's payload
    crossed its origin→destination link in full, so its cost is that link's
    ``energy_per_mb`` times the task's input size — no per-transfer state
    needed. ``energy_fn(origin_index, destination_index, megabytes)``
    overrides that per-crossing cost for topologies where origin and
    destination are not directly linked (hierarchical federations charge
    every uplink hop along the tree path); ``None`` keeps the direct-link
    lookup. Each ``(origin, destination, megabytes)`` crossing is priced
    once per call: the memo returns the float the first pricing summed.
    """
    local_n = offloaded_n = 0
    local_e = offloaded_e = wan_e = 0.0
    priced: dict[tuple[int, int, float], float] = {}
    for task in tasks:
        if task.status is not TaskStatus.COMPLETED:
            continue
        origin, cluster = task.origin_cluster, task.cluster
        energy = task.energy or 0.0
        if origin is None or cluster is None or origin == cluster:
            local_n += 1
            local_e += energy
        else:
            offloaded_n += 1
            offloaded_e += energy
            megabytes = task.task_type.data_in
            route = (origin, cluster, megabytes)
            cost = priced.get(route)
            if cost is None:
                if energy_fn is not None:
                    cost = energy_fn(origin, cluster, megabytes)
                else:
                    link = topology.link_between(names[origin], names[cluster])
                    cost = link.transfer_energy(megabytes)
                priced[route] = cost
            wan_e += cost
    return OffloadEnergySplit(
        local_completed=local_n,
        offloaded_completed=offloaded_n,
        local_task_energy=local_e,
        offloaded_task_energy=offloaded_e,
        wan_transfer_energy=wan_e,
    )


@dataclass(frozen=True)
class TreeNodeStats:
    """Rolled-up metrics of one node of a hierarchical federation.

    A *leaf* node's stats are the per-shard numbers the run produced; an
    *interior* node's stats are the exact elementwise sum over every leaf
    beneath it. ``path`` is the node's position in the tree, root-most
    segment first; the root's path is empty and prints as ``*``.
    """

    path: tuple[str, ...]
    stats: dict[str, float] = field(default_factory=dict)
    n_leaves: int = 1

    @property
    def wire(self) -> str:
        """Wire form of the node's path (``/``-joined; ``*`` at the root)."""
        return "/".join(self.path) if self.path else "*"

    @property
    def depth(self) -> int:
        """Levels below the federation root (0 for the root itself)."""
        return len(self.path)

    @property
    def name(self) -> str:
        """Last path segment (``*`` at the root)."""
        return self.path[-1] if self.path else "*"


class TreeRollup:
    """Per-level aggregation of leaf metrics over a federation tree.

    Built from the leaves alone: each leaf contributes its path (root-most
    segment first) and a flat name→number stats mapping, and every interior
    node — each proper prefix of a leaf path, plus the root — receives the
    elementwise sum of the leaves beneath it. Numeric identities follow by
    construction: the root totals equal the flat sum over all leaves, and
    any conservation law that holds per leaf holds at every interior node.

    Kept free of federation imports so the metrics layer stays a leaf
    dependency (the federation engine imports *this* module, not vice versa).
    """

    def __init__(self, nodes: Mapping[tuple[str, ...], TreeNodeStats]) -> None:
        self._nodes = dict(nodes)
        self._order = sorted(self._nodes)

    @classmethod
    def from_leaves(
        cls,
        leaf_paths: Sequence[Sequence[str]],
        leaf_stats: Sequence[Mapping[str, float]],
    ) -> "TreeRollup":
        """Fold per-leaf stats upward through every path prefix.

        ``leaf_paths[i]`` locates leaf *i* (root-most segment first) and
        ``leaf_stats[i]`` holds its numbers. Interior nodes are derived —
        any proper prefix shared by the paths — so callers never describe
        the tree twice.
        """
        if len(leaf_paths) != len(leaf_stats):
            raise ValueError(
                f"got {len(leaf_paths)} leaf paths but "
                f"{len(leaf_stats)} stat mappings"
            )
        sums: dict[tuple[str, ...], dict[str, float]] = {}
        counts: dict[tuple[str, ...], int] = {}
        leaf_keys = set()
        for raw_path, stats in zip(leaf_paths, leaf_stats):
            path = tuple(raw_path)
            if not path:
                raise ValueError("leaf paths must be non-empty")
            if path in leaf_keys:
                raise ValueError(f"duplicate leaf path: {'/'.join(path)}")
            leaf_keys.add(path)
            for depth in range(len(path) + 1):
                prefix = path[:depth]
                acc = sums.setdefault(prefix, {})
                counts[prefix] = counts.get(prefix, 0) + 1
                for key, value in stats.items():
                    acc[key] = acc.get(key, 0.0) + float(value)
        for path in leaf_keys:
            if any(
                other != path and other[: len(path)] == path
                for other in leaf_keys
            ):
                raise ValueError(
                    f"leaf path {'/'.join(path)} is a prefix of another "
                    "leaf (a node cannot be both leaf and interior)"
                )
        return cls(
            {
                path: TreeNodeStats(
                    path=path, stats=acc, n_leaves=counts[path]
                )
                for path, acc in sums.items()
            }
        )

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[TreeNodeStats]:
        for path in self._order:
            yield self._nodes[path]

    @property
    def root(self) -> TreeNodeStats:
        """The federation-wide totals (path ``()``, wire ``*``)."""
        return self._nodes[()]

    def at(self, wire: str) -> TreeNodeStats:
        """Node by wire path (``region/site/cluster``; ``*`` = root)."""
        path = () if wire == "*" else tuple(wire.split("/"))
        try:
            return self._nodes[path]
        except KeyError:
            known = ", ".join(n.wire for n in self)
            raise KeyError(
                f"no federation tree node {wire!r}; known: {known}"
            ) from None

    def as_dict(self) -> dict[str, dict[str, float]]:
        """Wire-path-keyed JSON form (stable key order)."""
        return {n.wire: dict(sorted(n.stats.items())) for n in self}

    def to_text(self, *, columns: Sequence[str] | None = None) -> str:
        """Indented per-level table of the rollup.

        ``columns`` picks which stat keys to print (default: every key of
        the root, sorted); each node row is indented by its depth.
        """
        cols = (
            list(columns)
            if columns is not None
            else sorted(self.root.stats)
        )
        label_width = max(
            (2 * n.depth + len(n.name) for n in self), default=4
        )
        label_width = max(label_width, len("node"))
        widths = [max(len(c), 10) for c in cols]
        lines = [
            "  ".join(
                ["node".ljust(label_width)]
                + [c.rjust(w) for c, w in zip(cols, widths)]
            )
        ]
        for node in self:
            label = ("  " * node.depth + node.name).ljust(label_width)
            cells = []
            for col, w in zip(cols, widths):
                value = node.stats.get(col, 0.0)
                if float(value).is_integer() and abs(value) < 1e15:
                    cells.append(f"{int(value)}".rjust(w))
                else:
                    cells.append(f"{value:.3f}".rjust(w))
            lines.append("  ".join([label] + cells))
        return "\n".join(lines)
