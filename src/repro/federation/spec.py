"""Declarative description of a federated (multi-cluster) deployment.

A :class:`FederationSpec` partitions a scenario's machine population into
named cluster shards, wires them with an inter-cluster WAN topology, and
names the gateway (offloading) policy that routes arriving tasks between
them. It plugs into :class:`repro.core.config.Scenario` (its ``federation``
field) and round-trips through JSON like every other scenario ingredient, so
a federated experiment stays a reproducible artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Mapping

from ..core.errors import ConfigurationError
from ..core.fields import array, integer, real, record, text
from ..net.topology import InterClusterTopology, Link

if TYPE_CHECKING:  # pragma: no cover
    from ..scheduling.federation.base import GatewayPolicy

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
        self.policy = text(self.policy, "migration.policy")
        self.policy_params = record(self.policy_params, "migration.policy_params")
        self.interval = real(self.interval, "migration.interval", above=0)
        self.pressure_gap = real(self.pressure_gap, "migration.pressure_gap", lo=0)
        self.batch_max = integer(self.batch_max, "migration.batch_max", lo=1)
        self.min_queue = integer(self.min_queue, "migration.min_queue", lo=1)
        if (self.high_watermark is None) != (self.low_watermark is None):
            raise ConfigurationError(
                "high_watermark and low_watermark must be set together"
            )
        if self.high_watermark is not None and self.low_watermark is not None:
            self.high_watermark = real(self.high_watermark, "migration.high_watermark")
            self.low_watermark = real(self.low_watermark, "migration.low_watermark", lo=0)
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
        return cls(**record(data, "migration", [f.name for f in fields(cls)]))


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
        scenario-level policy (so ``--policy`` sweeps apply everywhere) and
        its parameters, so ``scheduler_params`` need a ``scheduler``.
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
        self.name = text(self.name, "cluster.name")
        path = f"cluster {self.name!r}"
        if "->" in self.name:
            # '->' is the serialised topology-link separator ("src->dst");
            # allowing it in a name would break the JSON round-trip.
            raise ConfigurationError(
                f"cluster name {self.name!r} must not contain '->'"
            )
        self.machine_counts = {
            name: integer(count, f"{path}.machine_counts[{name!r}]")
            for name, count in record(
                self.machine_counts, f"{path}.machine_counts"
            ).items()
        }
        if not self.machine_counts:
            raise ConfigurationError(
                f"cluster {self.name!r} needs at least one machine type"
            )
        if sum(self.machine_counts.values()) == 0:
            raise ConfigurationError(
                f"cluster {self.name!r} needs at least one machine"
            )
        if self.scheduler is not None:
            text(self.scheduler, f"{path}.scheduler")
        self.scheduler_params = record(
            self.scheduler_params, f"{path}.scheduler_params"
        )
        if self.scheduler_params and self.scheduler is None:
            raise ConfigurationError(
                f"{path}.scheduler_params need {path}.scheduler: a cluster "
                "without one runs the scenario's policy and its parameters"
            )
        if self.queue_capacity is not None:
            self.queue_capacity = integer(
                self.queue_capacity, f"{path}.queue_capacity", unbounded=True
            )
        self.weight = real(self.weight, f"{path}.weight", lo=0)
        if self.uplink is not None and not isinstance(self.uplink, Link):
            self.uplink = Link.from_spec(self.uplink, f"{path}.uplink")

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
        keys = [f.name for f in fields(cls)]
        return cls(**record(data, "cluster", keys, ("name", "machine_counts")))


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
        self.name = text(self.name, "region.name")
        path = f"region {self.name!r}"
        self.children = [
            _coerce_node(c) for c in array(self.children, f"{path}.children")
        ]
        if not self.children:
            raise ConfigurationError(
                f"region {self.name!r} needs at least one child node"
            )
        if self.uplink is not None and not isinstance(self.uplink, Link):
            self.uplink = Link.from_spec(self.uplink, f"{path}.uplink")

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
        keys = [f.name for f in fields(cls)]
        return cls(**record(data, "region", keys, ("name", "children")))


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
            for c in array(self.clusters, "federation.clusters")
        ]
        self.gateway = text(self.gateway, "federation.gateway")
        self.gateway_params = record(self.gateway_params, "federation.gateway_params")
        if self.migration is not None and not isinstance(
            self.migration, MigrationSpec
        ):
            self.migration = MigrationSpec.from_dict(self.migration)
        if self.children is not None:
            self.children = [
                _coerce_node(c) for c in array(self.children, "federation.children")
            ]
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

    def check_gateway(self, gateway: "GatewayPolicy") -> None:
        """Refuse a gateway that cannot route this federation's shape.

        A tree needs a tree-capable gateway (``supports_hierarchy``): a flat
        one compares clusters over direct links the tree does not have.
        """
        if self.children is not None and not gateway.supports_hierarchy:
            raise ConfigurationError(
                f"gateway {gateway.name!r} does not support hierarchical "
                "federations: it compares clusters over direct links the "
                "tree does not have. Use a tree-capable policy "
                "(e.g. TREE_PRESSURE) or flatten the federation."
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
        spec = record(data, "federation", [f.name for f in fields(cls)])
        if spec.get("children") is None and "clusters" not in spec:
            raise ConfigurationError(
                "federation spec is missing required key 'clusters' "
                "(or 'children' for a hierarchical federation)"
            )
        topology = spec.pop("topology", None)
        return cls(
            topology=(
                InterClusterTopology()
                if topology is None
                else InterClusterTopology.from_dict(topology, "federation.topology")
            ),
            **spec,
        )
