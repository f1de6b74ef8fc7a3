"""One cluster shard of a federated simulation.

A :class:`ClusterShard` is the single-cluster engine's
:class:`~repro.core.simulator.ClusterCore` — the same cluster, batch queue,
local scheduling policy, metrics collector, per-type statistics and event
handlers a standalone :class:`~repro.core.simulator.Simulator` runs — on the
federation's event loop. It reads the loop's ``now``, pushes onto its heap,
and keeps its failure process alive while any task of the federation is
still live, so an idle shard stays repairable for a later offload. Every
event it schedules is stamped with its shard index (the event tuple's
``cluster`` field, ``event[5]``) so the federation loop can route the
event straight back to this shard's handlers.
"""

from __future__ import annotations

from typing import Any

from ..core.simulator import ClusterCore
from ..machines.cluster import Cluster
from ..machines.machine import Machine
from ..scheduling.base import Scheduler

__all__ = ["ClusterShard"]


class ClusterShard(ClusterCore):
    """A :class:`ClusterCore` hosted by a :class:`FederatedSimulator`.

    The federation owns stepping and termination; the shard adds only its
    identity, its routed-task count and the load signal gateways read.
    Arrivals are routed in by the gateway, so a shard owns no workload.
    """

    def __init__(
        self,
        index: int,
        name: str,
        cluster: Cluster,
        scheduler: Scheduler,
        *,
        weight: float = 1.0,
        **core: Any,
    ) -> None:
        """``core`` are the :class:`ClusterCore` keywords (loop, rng, …)."""
        super().__init__(cluster, scheduler, shard_id=index, **core)
        self.index = index
        self.name = name
        self.weight = weight
        self._n_machines = len(cluster.machines)
        #: Tasks the gateway routed to this shard (local or via WAN).
        self.routed = 0
        # On a tree: the live per-node ``alive`` counters and this leaf's
        # ancestors, which a failure or repair moves (see ``join_tree``).
        self._tree_alive: list[int] = []
        self._tree_nodes: tuple[int, ...] = ()

    def join_tree(self, alive: list[int], nodes: tuple[int, ...]) -> None:
        """Add this shard's live machines to ``alive[node]`` for every node
        of ``nodes``, and keep them there through failures and repairs."""
        up = self._n_machines - self.cluster.state.n_down
        for node in nodes:
            alive[node] += up
        self._tree_alive = alive
        self._tree_nodes = nodes

    @property
    def in_system(self) -> int:
        """Routed-but-not-terminal tasks (WAN transit + queued + running)."""
        return self.routed - self.collector.recorded

    def pressure(self) -> float:
        """Outstanding tasks per live machine (the gateway load signal).

        The attribute chains are flattened: this runs several times per
        routing decision.
        """
        state = self.cluster._state
        alive = self._n_machines - state.n_down
        if alive <= 0:
            return float("inf")
        return (self.routed - self.collector.recorded) / alive

    def _on_failure(self, machine: Machine) -> None:
        if machine.up:
            alive = self._tree_alive
            for node in self._tree_nodes:
                alive[node] -= 1
        super()._on_failure(machine)

    def _on_repair(self, machine: Machine) -> None:
        super()._on_repair(machine)
        alive = self._tree_alive
        for node in self._tree_nodes:
            alive[node] += 1
