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

        (Σ leaf in_system + wan_mb_weight · Σ leaf in-flight WAN MB)
            / Σ leaf live machines

    and the walk continues into the argmin child until it reaches a leaf.
    The two integer totals are the view's live per-node counters; only the
    in-flight megabytes are summed per decision, leaf by leaf in leaf
    order, so the float result does not depend on how the counters moved.
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

    def __init__(self, *, wan_mb_weight: float = 0.05) -> None:
        if wan_mb_weight < 0:
            raise ConfigurationError(
                f"wan_mb_weight must be >= 0, got {wan_mb_weight}"
            )
        self.wan_mb_weight = wan_mb_weight

    def choose_cluster(self, ctx: GatewayContext) -> int:
        view = ctx.hierarchy
        if view is None:
            return least_loaded_cluster(ctx)
        tree = view.tree
        # A child subtree holds the origin iff the child is on its root path.
        local_nodes = tree.ancestors[ctx.origin]
        node = tree.root
        while not tree.is_leaf(node):
            best = -1
            best_pressure = float("inf")
            best_local = False
            for child in tree.children[node]:
                pressure = self._subtree_pressure(view, child)
                local = child in local_nodes
                if (
                    best < 0
                    or pressure < best_pressure
                    or (pressure == best_pressure and local and not best_local)
                ):
                    best, best_pressure, best_local = child, pressure, local
            node = best
        return node

    def _subtree_pressure(self, view: "HierarchyView", node: int) -> float:
        """Aggregate pressure of one subtree (leaves beneath ``node``)."""
        alive = view.alive[node]
        if alive <= 0:
            return float("inf")
        # Leaf order, from 0.0: the pinned runs depend on this float sum's
        # operand order, so neither a running total nor ``sum()`` (which
        # compensates on newer Pythons) may replace it.
        inflight = view.inflight_mb
        inflight_mb = 0.0
        for leaf in view.tree.leaves_under[node]:
            inflight_mb += inflight[leaf]
        return (view.in_system[node] + self.wan_mb_weight * inflight_mb) / alive
