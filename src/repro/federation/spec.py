"""Declarative description of a federated (multi-cluster) deployment.

A :class:`FederationSpec` partitions a scenario's machine population into
named cluster shards, wires them with an inter-cluster WAN topology, and
names the gateway (offloading) policy that routes arriving tasks between
them. It plugs into :class:`repro.core.config.Scenario` (its ``federation``
field) and round-trips through JSON like every other scenario ingredient, so
a federated experiment stays a reproducible artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..core.errors import ConfigurationError
from ..net.topology import InterClusterTopology, Link

__all__ = ["ClusterSpec", "MigrationSpec", "RegionSpec", "FederationSpec"]


@dataclass
class MigrationSpec:
    """Mid-queue cross-cluster migration: when and what to rebalance.

    When set on a :class:`FederationSpec`, the federated simulator runs a
    periodic rebalance pass (every ``interval`` simulated seconds): for each
    cluster whose batch queue holds at least ``min_queue`` tasks and whose
    pressure exceeds the least-loaded remote cluster's by at least
    ``pressure_gap``, up to ``batch_max`` tasks are evicted (chosen by the
    registered eviction ``policy``) and shipped over the WAN — contending
    with ordinary offloads for the same link channels and paying the same
    per-megabyte energy.

    Attributes
    ----------
    policy / policy_params:
        Registered eviction policy (see
        :mod:`repro.scheduling.federation.eviction`): ``LONGEST_WAIT``,
        ``DEADLINE_SLACK``, ``EET_GAIN``, or your own.
    interval:
        Simulated seconds between rebalance passes (> 0).
    pressure_gap:
        Minimum source-minus-destination pressure difference (outstanding
        tasks per live machine) before any eviction happens; the damping
        knob between "never migrate" (large) and thrashing (zero).
    batch_max:
        Maximum tasks evicted per source cluster per pass.
    min_queue:
        Sources with fewer batch-queued tasks than this are left alone.
    high_watermark / low_watermark:
        Optional hysteresis on the trigger (set both or neither). A source
        *starts* shedding only once its pressure gap crosses
        ``high_watermark`` and keeps shedding until the gap falls to
        ``low_watermark``; the dead band in between never starts a shed.
        Replaces the single ``pressure_gap`` threshold (which is ignored
        while watermarks are set); unset, the trigger is the original
        fixed threshold and the event stream is bit-identical to pre-
        hysteresis builds.
    """

    policy: str = "LONGEST_WAIT"
    policy_params: dict[str, Any] = field(default_factory=dict)
    interval: float = 20.0
    pressure_gap: float = 1.0
    batch_max: int = 4
    min_queue: int = 2
    high_watermark: float | None = None
    low_watermark: float | None = None

    def __post_init__(self) -> None:
        if not self.policy:
            raise ConfigurationError("migration policy must be non-empty")
        if not self.interval > 0:
            raise ConfigurationError(
                f"migration interval must be > 0, got {self.interval}"
            )
        if self.pressure_gap < 0:
            raise ConfigurationError(
                f"pressure_gap must be >= 0, got {self.pressure_gap}"
            )
        if self.batch_max < 1:
            raise ConfigurationError(
                f"batch_max must be >= 1, got {self.batch_max}"
            )
        if self.min_queue < 1:
            raise ConfigurationError(
                f"min_queue must be >= 1, got {self.min_queue}"
            )
        if (self.high_watermark is None) != (self.low_watermark is None):
            raise ConfigurationError(
                "high_watermark and low_watermark must be set together"
            )
        if self.high_watermark is not None and self.low_watermark is not None:
            if self.low_watermark < 0:
                raise ConfigurationError(
                    f"low_watermark must be >= 0, got {self.low_watermark}"
                )
            if self.high_watermark < self.low_watermark:
                raise ConfigurationError(
                    f"high_watermark ({self.high_watermark}) must be >= "
                    f"low_watermark ({self.low_watermark})"
                )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (omits empty policy params)."""
        out: dict[str, Any] = {
            "policy": self.policy,
            "interval": self.interval,
            "pressure_gap": self.pressure_gap,
            "batch_max": self.batch_max,
            "min_queue": self.min_queue,
        }
        if self.policy_params:
            out["policy_params"] = dict(self.policy_params)
        if self.high_watermark is not None:
            out["high_watermark"] = self.high_watermark
            out["low_watermark"] = self.low_watermark
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MigrationSpec":
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"migration spec must be a JSON object, got "
                f"{type(data).__name__}"
            )
        unknown = set(data) - {
            "policy",
            "policy_params",
            "interval",
            "pressure_gap",
            "batch_max",
            "min_queue",
            "high_watermark",
            "low_watermark",
        }
        if unknown:
            raise ConfigurationError(
                f"migration spec has unknown key(s) {sorted(unknown)}"
            )
        high = data.get("high_watermark")
        low = data.get("low_watermark")
        return cls(
            policy=str(data.get("policy", "LONGEST_WAIT")),
            policy_params=dict(data.get("policy_params", {})),
            interval=float(data.get("interval", 20.0)),
            pressure_gap=float(data.get("pressure_gap", 1.0)),
            batch_max=int(data.get("batch_max", 4)),
            min_queue=int(data.get("min_queue", 2)),
            high_watermark=None if high is None else float(high),
            low_watermark=None if low is None else float(low),
        )


@dataclass
class ClusterSpec:
    """One cluster shard of a federation.

    Attributes
    ----------
    name:
        Cluster identifier — the node label of the inter-cluster topology
        and the key of per-cluster results.
    machine_counts:
        Machines per machine type inside this cluster, e.g.
        ``{"edge_cpu": 4}``. Type names must be EET columns.
    scheduler / scheduler_params:
        Local scheduling policy for this cluster; ``None`` inherits the
        scenario-level policy (so ``--policy`` sweeps apply everywhere).
    queue_capacity:
        Machine-queue capacity override for this cluster (``None`` inherits
        the scenario's capacity; immediate policies force unbounded).
    weight:
        Relative share of workload arrivals originating at this cluster
        (0 means tasks never *arrive* here, though the gateway may still
        *offload* to it).
    """

    name: str
    machine_counts: dict[str, int]
    scheduler: str | None = None
    scheduler_params: dict[str, Any] = field(default_factory=dict)
    queue_capacity: float | None = None
    weight: float = 1.0
    #: Link to this cluster's parent node in a *hierarchical* federation
    #: (see :attr:`FederationSpec.children`); ``None`` inherits the
    #: topology's default link. Ignored — and omitted from JSON — in flat
    #: federations, so legacy specs round-trip byte-identically.
    uplink: Link | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("cluster name must be non-empty")
        if "->" in self.name:
            # '->' is the serialised topology-link separator ("src->dst");
            # allowing it in a name would break the JSON round-trip.
            raise ConfigurationError(
                f"cluster name {self.name!r} must not contain '->'"
            )
        if not self.machine_counts:
            raise ConfigurationError(
                f"cluster {self.name!r} needs at least one machine type"
            )
        counts = {str(k): int(v) for k, v in self.machine_counts.items()}
        if any(c < 0 for c in counts.values()):
            raise ConfigurationError(
                f"cluster {self.name!r}: machine counts must be >= 0"
            )
        if sum(counts.values()) == 0:
            raise ConfigurationError(
                f"cluster {self.name!r} needs at least one machine"
            )
        self.machine_counts = counts
        if not (math.isfinite(self.weight) and self.weight >= 0):
            raise ConfigurationError(
                f"cluster {self.name!r}: weight must be finite and >= 0, "
                f"got {self.weight}"
            )
        if self.uplink is not None and not isinstance(self.uplink, Link):
            self.uplink = Link.from_spec(self.uplink)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (omits unset optional fields)."""
        out: dict[str, Any] = {
            "name": self.name,
            "machine_counts": dict(self.machine_counts),
            "weight": self.weight,
        }
        if self.scheduler is not None:
            out["scheduler"] = self.scheduler
        if self.scheduler_params:
            out["scheduler_params"] = dict(self.scheduler_params)
        if self.queue_capacity is not None:
            out["queue_capacity"] = self.queue_capacity
        if self.uplink is not None:
            out["uplink"] = self.uplink.to_spec()
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ClusterSpec":
        try:
            name = data["name"]
            machine_counts = data["machine_counts"]
        except KeyError as exc:
            raise ConfigurationError(
                f"cluster spec is missing required key {exc.args[0]!r}"
            ) from None
        uplink = data.get("uplink")
        return cls(
            name=str(name),
            machine_counts=dict(machine_counts),
            scheduler=data.get("scheduler"),
            scheduler_params=dict(data.get("scheduler_params", {})),
            queue_capacity=data.get("queue_capacity"),
            weight=float(data.get("weight", 1.0)),
            uplink=None if uplink is None else Link.from_spec(uplink),
        )


@dataclass
class RegionSpec:
    """An interior node of a *hierarchical* federation.

    A region groups child nodes — further regions or :class:`ClusterSpec`
    leaves — behind one **uplink**: the physical link joining this node to
    its parent. Every WAN path between two leaves climbs child→parent
    uplinks to the lowest common ancestor and descends again, so a region's
    uplink is shared by *all* traffic entering or leaving its subtree
    (a congested region uplink back-pressures every site beneath it).

    Attributes
    ----------
    name:
        Node identifier; globally unique across the whole tree (it is a
        path segment of :class:`~repro.federation.hierarchy.ClusterPath`
        wire forms, so ``/`` is forbidden).
    children:
        Child nodes, in order (leaf order defines shard indices).
    uplink:
        Link to the parent node; ``None`` inherits the federation
        topology's default link.
    """

    name: str
    children: "list[RegionSpec | ClusterSpec]" = field(default_factory=list)
    uplink: Link | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("region name must be non-empty")
        self.children = [_coerce_node(c) for c in self.children]
        if not self.children:
            raise ConfigurationError(
                f"region {self.name!r} needs at least one child node"
            )
        if self.uplink is not None and not isinstance(self.uplink, Link):
            self.uplink = Link.from_spec(self.uplink)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (child leaves keep their ClusterSpec shape)."""
        out: dict[str, Any] = {
            "name": self.name,
            "children": [c.to_dict() for c in self.children],
        }
        if self.uplink is not None:
            out["uplink"] = self.uplink.to_spec()
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RegionSpec":
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"region spec must be a JSON object, got {type(data).__name__}"
            )
        try:
            name = data["name"]
            children = data["children"]
        except KeyError as exc:
            raise ConfigurationError(
                f"region spec is missing required key {exc.args[0]!r}"
            ) from None
        uplink = data.get("uplink")
        return cls(
            name=str(name),
            children=[_coerce_node(c) for c in children],
            uplink=None if uplink is None else Link.from_spec(uplink),
        )


def _coerce_node(data: Any) -> "RegionSpec | ClusterSpec":
    """Accept node objects or their JSON forms (``children`` ⇒ region)."""
    if isinstance(data, (RegionSpec, ClusterSpec)):
        return data
    if isinstance(data, Mapping):
        if "children" in data:
            return RegionSpec.from_dict(data)
        return ClusterSpec.from_dict(data)
    raise ConfigurationError(
        f"federation tree node must be a RegionSpec, ClusterSpec or JSON "
        f"object, got {type(data).__name__}"
    )


def _walk_leaves(
    node: "RegionSpec | ClusterSpec", out: list[ClusterSpec]
) -> None:
    if isinstance(node, ClusterSpec):
        out.append(node)
        return
    for child in node.children:
        _walk_leaves(child, out)


def _walk_names(node: "RegionSpec | ClusterSpec", out: list[str]) -> None:
    out.append(node.name)
    if isinstance(node, RegionSpec):
        for child in node.children:
            _walk_names(child, out)


@dataclass
class FederationSpec:
    """The multi-cluster layer of a scenario.

    Attributes
    ----------
    clusters:
        The cluster shards, in federation order (shard indices follow it).
        Derived — pre-order leaf order — when ``children`` is set.
    gateway / gateway_params:
        Registered gateway policy routing arrivals between clusters (see
        :mod:`repro.scheduling.federation`).
    topology:
        Inter-cluster WAN links; offloaded tasks pay
        ``topology.wan_delay(origin, destination, task.data_in)`` before
        entering the destination's batch queue. Hierarchical federations
        derive their links from node uplinks instead (``topology.default``
        backs any node without an explicit uplink), so explicit link
        entries are rejected when ``children`` is set.
    migration:
        Mid-queue migration configuration (:class:`MigrationSpec`), or
        ``None`` (the default) for arrival-time-only routing. Refused for
        hierarchical federations (the rebalancer ships over direct
        leaf-to-leaf links, which a tree topology does not have).
    children:
        Optional hierarchy: a list of top-level :class:`RegionSpec` /
        :class:`ClusterSpec` nodes under an implicit federation root.
        When set, ``clusters`` is derived from the tree's leaves and the
        :class:`~repro.federation.simulator.FederatedSimulator` routes
        offloads along tree paths over shared parent uplinks. ``None``
        (the default) is the flat mesh, whose every route is one direct
        hop.
    """

    clusters: list[ClusterSpec] = field(default_factory=list)
    gateway: str = "LEAST_LOADED"
    gateway_params: dict[str, Any] = field(default_factory=dict)
    topology: InterClusterTopology = field(default_factory=InterClusterTopology)
    migration: MigrationSpec | None = None
    children: "list[RegionSpec | ClusterSpec] | None" = None

    def __post_init__(self) -> None:
        self.clusters = [
            c if isinstance(c, ClusterSpec) else ClusterSpec.from_dict(c)
            for c in self.clusters
        ]
        if self.migration is not None and not isinstance(
            self.migration, MigrationSpec
        ):
            self.migration = MigrationSpec.from_dict(self.migration)
        if self.children is not None:
            self.children = [_coerce_node(c) for c in self.children]
            self._validate_tree()
        if not self.clusters:
            raise ConfigurationError("a federation needs at least one cluster")
        names = [c.name for c in self.clusters]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate cluster names: {names}")
        if sum(c.weight for c in self.clusters) <= 0:
            raise ConfigurationError(
                "at least one cluster needs a positive arrival weight"
            )
        for src, dst in self.topology.links:
            for endpoint in (src, dst):
                if endpoint not in names:
                    raise ConfigurationError(
                        f"topology link references unknown cluster "
                        f"{endpoint!r}; clusters: {names}"
                    )

    def _validate_tree(self) -> None:
        """Hierarchy invariants; also derives ``clusters`` from the leaves."""
        assert self.children is not None
        if not self.children:
            raise ConfigurationError(
                "a hierarchical federation needs at least one child node"
            )
        node_names: list[str] = []
        for node in self.children:
            _walk_names(node, node_names)
        for name in node_names:
            if "/" in name:
                raise ConfigurationError(
                    f"federation tree node {name!r} must not contain '/' "
                    "(the cluster-path wire separator)"
                )
            if "->" in name:
                raise ConfigurationError(
                    f"federation tree node {name!r} must not contain '->' "
                    "(the serialised topology-link separator)"
                )
            if name == "*":
                raise ConfigurationError(
                    "'*' is reserved for the federation root node"
                )
        if len(set(node_names)) != len(node_names):
            dupes = sorted(
                {n for n in node_names if node_names.count(n) > 1}
            )
            raise ConfigurationError(
                f"federation tree node names must be globally unique; "
                f"duplicated: {dupes}"
            )
        leaves: list[ClusterSpec] = []
        for node in self.children:
            _walk_leaves(node, leaves)
        if self.clusters and [c.name for c in self.clusters] != [
            c.name for c in leaves
        ]:
            raise ConfigurationError(
                "clusters of a hierarchical federation are derived from the "
                "tree's leaves; omit the clusters field (or pass exactly the "
                "pre-order leaf list)"
            )
        self.clusters = leaves
        if self.topology.links:
            raise ConfigurationError(
                "hierarchical federations derive WAN links from node "
                "uplinks; explicit topology links are not allowed "
                "(set per-node uplink= instead)"
            )
        if self.migration is not None:
            raise ConfigurationError(
                "hierarchical federations do not support mid-queue "
                "migration: the rebalancer ships tasks over direct "
                "leaf-to-leaf links, which a tree topology does not have"
            )

    # -- views ---------------------------------------------------------------------

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.clusters]

    def index_of(self, name: str) -> int:
        """Shard index of the cluster called *name*."""
        for i, cluster in enumerate(self.clusters):
            if cluster.name == name:
                return i
        raise ConfigurationError(
            f"unknown cluster {name!r}; clusters: {self.names}"
        )

    def total_machine_counts(self) -> dict[str, int]:
        """Machines per machine type summed across all clusters.

        A scenario's global ``machine_counts`` must equal this total — the
        federation is a partition of the population, not a second one.
        """
        totals: dict[str, int] = {}
        for cluster in self.clusters:
            for name, count in cluster.machine_counts.items():
                totals[name] = totals.get(name, 0) + count
        return totals

    def arrival_weights(self) -> list[float]:
        """Per-cluster arrival weights, in federation order."""
        return [c.weight for c in self.clusters]

    # -- JSON round-trip ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form of the whole federation.

        Hierarchical federations emit ``children`` and omit ``clusters``
        (the leaf list is derived, so serialising it twice would invite
        divergence); flat federations keep their exact legacy shape.
        """
        out: dict[str, Any]
        if self.children is not None:
            out = {
                "children": [c.to_dict() for c in self.children],
                "gateway": self.gateway,
                "gateway_params": dict(self.gateway_params),
                "topology": self.topology.to_dict(),
            }
            return out
        out = {
            "clusters": [c.to_dict() for c in self.clusters],
            "gateway": self.gateway,
            "gateway_params": dict(self.gateway_params),
            "topology": self.topology.to_dict(),
        }
        if self.migration is not None:
            out["migration"] = self.migration.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FederationSpec":
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"federation spec must be a JSON object, got "
                f"{type(data).__name__}"
            )
        children = data.get("children")
        if children is None and "clusters" not in data:
            raise ConfigurationError(
                "federation spec is missing required key 'clusters' "
                "(or 'children' for a hierarchical federation)"
            )
        clusters = data.get("clusters", [])
        topology = data.get("topology")
        migration = data.get("migration")
        return cls(
            clusters=[ClusterSpec.from_dict(c) for c in clusters],
            gateway=str(data.get("gateway", "LEAST_LOADED")),
            gateway_params=dict(data.get("gateway_params", {})),
            topology=(
                InterClusterTopology()
                if topology is None
                else InterClusterTopology.from_dict(topology)
            ),
            migration=(
                None if migration is None else MigrationSpec.from_dict(migration)
            ),
            children=(
                None if children is None else [_coerce_node(c) for c in children]
            ),
        )
