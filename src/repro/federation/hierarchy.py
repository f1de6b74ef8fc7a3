"""Hierarchical federations: path-routed multi-level topologies.

A flat federation (:mod:`repro.federation.simulator`) is a clique: every
cluster pair has its own direct WAN link. Planet-scale deployments are not
cliques — they are trees (region → site → cluster), where two clusters in
different regions talk through both region **uplinks** and a congested
uplink back-pressures every site beneath it. This module is that tree:

* :class:`ClusterPath` — a leaf's position as a ``/``-joined name path
  (``"eu/paris/edge-0"``), the wire form of hierarchical addressing.
* :class:`FederationTree` — the compiled topology: node namespace (leaves
  first, so leaf ids *are* shard indices), child→parent uplink edges as an
  :class:`~repro.net.topology.InterClusterTopology`, and cached
  lowest-common-ancestor routes.
* :class:`HierarchyView` — what a tree-capable gateway policy sees: the
  tree, live per-leaf in-flight WAN megabytes and live per-node load
  counters.

The engine is the one :class:`~repro.federation.simulator.FederatedSimulator`:
given a spec with ``children`` it routes offloads along
:meth:`FederationTree.route`, hopping the tree store-and-forward — each hop
is one :class:`~repro.net.wan.WanTransfer` on the child↔parent uplink
channel, relay deliveries carry the remaining node path in the ``cluster``
field of their :data:`~repro.core.events.Event` tuple (``event[5]``, a
tuple), and the *final* hop carries the destination leaf as a plain
``int``, the form every hop of a flat mesh uses.

Routing address forms, by example (leaf ids 0..n-1, interior ids above)::

    event[5] == 3           # final hop: deliver to shard 3 (flat form)
    event[5] == (19, 7, 3)  # relay: now at node 19, still 7 → 3 to go

Refusals are explicit: gateways that do not understand trees
(``supports_hierarchy`` is false) are rejected at construction — a flat
policy would price every leaf pair over a direct link the tree does not
have.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence

from ..core.errors import ConfigurationError
from ..net.topology import InterClusterTopology, Link
from .spec import ClusterSpec, FederationSpec, RegionSpec

__all__ = ["ClusterPath", "FederationTree", "HierarchyView"]

#: Name of the implicit federation root node (reserved in specs).
ROOT_NAME = "*"


class ClusterPath(tuple[str, ...]):
    """A node's position in the federation tree, root-most segment first.

    An immutable tuple of node names; the wire form joins the segments
    with ``/`` (which is why node names may not contain it). The root's
    path is written ``*`` on the wire but is *not* a ClusterPath — paths
    address real nodes, so they are non-empty by construction.
    """

    __slots__ = ()

    def __new__(cls, segments: Iterable[str]) -> "ClusterPath":
        path = super().__new__(cls, segments)
        if not path:
            raise ConfigurationError("a cluster path needs at least one segment")
        for segment in path:
            if not segment or "/" in segment:
                raise ConfigurationError(
                    f"invalid cluster-path segment {segment!r} in "
                    f"{'/'.join(path)!r}"
                )
        return path

    @property
    def wire(self) -> str:
        """The ``/``-joined serialised form."""
        return "/".join(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ClusterPath({self.wire!r})"


class FederationTree:
    """The compiled topology of one hierarchical federation.

    Node namespace: leaves occupy indices ``0..n_leaves-1`` in pre-order —
    identical to shard indices, which is what lets the final hop of a route
    reuse the flat ``int`` event address — the implicit root is
    ``n_leaves``, and further interior nodes follow in discovery
    (pre-order) order. Edges are child→parent uplinks only; the hop
    topology is symmetric, so both directions of an edge share one
    physical channel, exactly like a real uplink port.
    """

    def __init__(self, spec: FederationSpec) -> None:
        if spec.children is None:
            raise ConfigurationError(
                "FederationTree needs a hierarchical FederationSpec "
                "(children is None)"
            )
        n_leaves = len(spec.clusters)
        # Leaf slots are pre-allocated so leaf ids match shard indices;
        # interior nodes append behind the root as the walk discovers them.
        names: list[str] = [""] * n_leaves + [ROOT_NAME]
        paths: list[tuple[str, ...]] = [()] * n_leaves + [()]
        parent: list[int] = [-1] * (n_leaves + 1)
        uplink: list[Link | None] = [None] * (n_leaves + 1)
        children: list[list[int]] = [[] for _ in range(n_leaves + 1)]
        root = n_leaves
        leaf_cursor = 0

        def visit(
            node: "RegionSpec | ClusterSpec", parent_idx: int
        ) -> None:
            nonlocal leaf_cursor
            path = paths[parent_idx] + (node.name,)
            if isinstance(node, ClusterSpec):
                idx = leaf_cursor
                leaf_cursor += 1
                names[idx] = node.name
                paths[idx] = path
            else:
                idx = len(names)
                names.append(node.name)
                paths.append(path)
                parent.append(-1)
                uplink.append(None)
                children.append([])
            parent[idx] = parent_idx
            uplink[idx] = node.uplink
            children[parent_idx].append(idx)
            if isinstance(node, RegionSpec):
                for child in node.children:
                    visit(child, idx)

        for top in spec.children:
            visit(top, root)
        assert leaf_cursor == n_leaves

        self.n_leaves = n_leaves
        self.root = root
        self.node_names: list[str] = names
        self.parent: list[int] = parent
        self.children: list[tuple[int, ...]] = [tuple(c) for c in children]
        self.leaf_paths: list[ClusterPath] = [
            ClusterPath(paths[i]) for i in range(n_leaves)
        ]
        # Child→parent uplink edges, one per non-root node. Symmetric: both
        # directions share the physical port. The *default* link of the hop
        # topology is inert on purpose — every real edge is explicit, so a
        # submit between non-adjacent nodes (a routing bug) would cross a
        # zero link instead of silently inventing a direct WAN path, and
        # the WAN manager's energy-bearing-default channel materialisation
        # cannot fabricate leaf-to-leaf channels that do not exist.
        links: dict[tuple[str, str], Link] = {}
        default = spec.topology.default
        for idx in range(len(names)):
            up = parent[idx]
            if up < 0:
                continue
            edge = uplink[idx] if uplink[idx] is not None else default
            assert edge is not None
            links[(names[idx], names[up])] = edge
        self.hop_topology = InterClusterTopology(
            links=links, default=Link(), symmetric=True
        )
        # Leaf ids under each node, in leaf order (pre-order ⇒ sorted).
        leaves_under: list[tuple[int, ...]] = [()] * len(names)

        def collect(idx: int) -> tuple[int, ...]:
            if idx < n_leaves:
                leaves_under[idx] = (idx,)
            else:
                acc: list[int] = []
                for child in self.children[idx]:
                    acc.extend(collect(child))
                leaves_under[idx] = tuple(acc)
            return leaves_under[idx]

        collect(root)
        self.leaves_under: list[tuple[int, ...]] = leaves_under
        # Each leaf's chain up to the root, the leaf itself first: the
        # nodes whose subtree counters a change at that leaf moves.
        ancestors: list[tuple[int, ...]] = []
        for leaf in range(n_leaves):
            chain: list[int] = []
            idx = leaf
            while idx != -1:
                chain.append(idx)
                idx = parent[idx]
            ancestors.append(tuple(chain))
        self.ancestors: list[tuple[int, ...]] = ancestors
        self._routes: dict[tuple[int, int], tuple[int, ...]] = {}

    def is_leaf(self, node: int) -> bool:
        """True for shard-backed nodes (ids below ``n_leaves``)."""
        return node < self.n_leaves

    def route(self, origin: int, destination: int) -> tuple[int, ...]:
        """Node-id path origin → LCA → destination, endpoints included.

        Cached — a federation routes the same leaf pairs millions of
        times. The route never leaves the LCA's subtree: it climbs
        origin's parent chain and descends destination's, touching no
        sibling subtrees.
        """
        key = (origin, destination)
        route = self._routes.get(key)
        if route is None:
            chain = self.ancestors[origin]
            position = {node: i for i, node in enumerate(chain)}
            down: list[int] = []
            idx = destination
            while idx not in position:
                down.append(idx)
                idx = self.parent[idx]
            route = chain[: position[idx] + 1] + tuple(down[::-1])
            self._routes[key] = route
        return route

    def edge_link(self, a: int, b: int) -> Link:
        """The physical uplink joining two *adjacent* nodes."""
        return self.hop_topology.link_between(
            self.node_names[a], self.node_names[b]
        )

    def path_transfer_energy(
        self, origin: int, destination: int, megabytes: float
    ) -> float:
        """J/MB payload cost summed over every uplink hop of the route."""
        if origin == destination:
            return 0.0
        route = self.route(origin, destination)
        return sum(
            self.edge_link(a, b).transfer_energy(megabytes)
            for a, b in zip(route, route[1:])
        )


@dataclasses.dataclass
class HierarchyView:
    """Live tree state a tree-capable gateway policy may consult.

    Every field is a live reference the engine updates in place:

    * ``inflight_mb`` — per *leaf*, the in-flight WAN payload (megabytes
      routed toward that leaf and not yet delivered or cancelled);
    * ``in_system`` — per *node*, the tasks routed into its subtree that
      have not reached a terminal state (Σ routed − recorded);
    * ``alive`` — per *node*, the machines of its subtree that are up
      (Σ machines − down).

    The two per-node counters move only where their inputs do: a gateway
    decision, a terminal record, a machine failure or repair, each bumping
    the leaf and its :attr:`FederationTree.ancestors`. So a policy reads a
    subtree's totals in O(1) instead of re-summing its leaves.
    """

    tree: FederationTree
    inflight_mb: Sequence[float]
    in_system: list[int]
    alive: list[int]
