"""The tree-capable gateway: level-by-level routing on rolled-up pressure.

Flat gateways compare every cluster pair over a direct WAN link; a
hierarchical federation (:mod:`repro.federation.hierarchy`) has no such
links — only child↔parent uplinks — so its routing decision is structural:
*which subtree*, recursively, until a leaf is reached. That is exactly the
multi-level placement question (which region, then which site, then which
cluster) the E2C evaluation studies pose, and it is why this module's
policy is the only stock gateway with ``supports_hierarchy`` set.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...core.errors import ConfigurationError
from .base import GatewayContext, GatewayPolicy, least_loaded_cluster
from .registry import register_gateway

if TYPE_CHECKING:  # pragma: no cover
    from ...federation.hierarchy import HierarchyView

__all__ = ["TreePressureGateway"]


@register_gateway(aliases=("HIERARCHICAL",))
class TreePressureGateway(GatewayPolicy):
    """Descend the federation tree, picking the least-pressured subtree.

    At each interior node, every child subtree is scored by its rolled-up
    pressure::

        (Σ leaf in_system
         + wan_mb_weight · Σ leaf in-flight WAN MB
         + migration_weight · Σ leaf migrations-from) / Σ leaf live machines

    and the walk continues into the argmin child until it reaches a leaf.
    In-flight WAN payload counts *toward* a subtree's pressure, so traffic
    already converging on a region steers later arrivals elsewhere before
    any of it lands in a queue — the rolled-up analogue of link backlog.
    Ties prefer the child subtree containing the task's origin (locality),
    then the earlier child, so a balanced tree degrades into keep-it-local.

    On a *flat* federation (no hierarchy in the context) the policy is the
    depth-1 special case of the same rule: the argmin-pressure leaf, origin
    first on ties — LEAST_LOADED's arithmetic, reached through the tree
    walk's degenerate single level.
    """

    name = "TREE_PRESSURE"
    description = "descend the federation tree into the least-pressured subtree"
    supports_hierarchy = True

    def __init__(
        self,
        *,
        wan_mb_weight: float = 0.05,
        migration_weight: float = 0.0,
    ) -> None:
        if wan_mb_weight < 0:
            raise ConfigurationError(
                f"wan_mb_weight must be >= 0, got {wan_mb_weight}"
            )
        if migration_weight < 0:
            raise ConfigurationError(
                f"migration_weight must be >= 0, got {migration_weight}"
            )
        self.wan_mb_weight = wan_mb_weight
        self.migration_weight = migration_weight

    def choose_cluster(self, ctx: GatewayContext) -> int:
        view = ctx.hierarchy
        if view is None:
            return least_loaded_cluster(ctx)
        tree = view.tree
        origin = ctx.origin
        node = tree.root
        while not tree.is_leaf(node):
            best = -1
            best_pressure = float("inf")
            best_local = False
            for child in tree.children[node]:
                pressure = self._subtree_pressure(ctx, view, child)
                local = origin in tree.leaves_under[child]
                if (
                    best < 0
                    or pressure < best_pressure
                    or (pressure == best_pressure and local and not best_local)
                ):
                    best, best_pressure, best_local = child, pressure, local
            node = best
        return node

    def _subtree_pressure(
        self, ctx: GatewayContext, view: "HierarchyView", node: int
    ) -> float:
        """Aggregate pressure of one subtree (leaves beneath ``node``)."""
        tree = view.tree
        inflight = view.inflight_mb
        in_system = 0
        inflight_mb = 0.0
        migrations = 0
        alive = 0
        for leaf in tree.leaves_under[node]:
            shard = ctx.shards[leaf]
            in_system += shard.in_system
            inflight_mb += inflight[leaf]
            cluster = shard.cluster
            alive += len(cluster.machines) - cluster.state.n_down
            if self.migration_weight and ctx.migrations is not None:
                migrations += ctx.migrations_from(leaf)
        if alive <= 0:
            return float("inf")
        load = (
            in_system
            + self.wan_mb_weight * inflight_mb
            + self.migration_weight * migrations
        )
        return load / alive
