"""Federated simulation kernel: multi-cluster shards under one event heap.

The single-cluster engine (:mod:`repro.core.simulator`) models one scheduler
fanning out to one machine pool (the paper's Fig. 1 star). This package
federates it: a :class:`FederatedSimulator` hosts N
:class:`~repro.federation.shard.ClusterShard` engines — each with its own
cluster, batch queue, local scheduling policy and metrics collector — under
a single clock and future-event list, with a gateway (offloading) policy
layer (:mod:`repro.scheduling.federation`) routing arriving tasks between
clusters over an :class:`~repro.net.topology.InterClusterTopology` of WAN
links. The canonical heterogeneous-computing scenarios this unlocks —
edge-cloud offloading, geo-distributed sites, hierarchical scheduling —
ship as presets in :mod:`repro.scenarios.federated`.

Mid-queue migration (:mod:`repro.federation.migration`) extends the
gateway's one-shot routing: when a :class:`~repro.federation.spec.MigrationSpec`
is set, a periodic :class:`~repro.federation.migration.Rebalancer` evicts
tasks from saturated shards' batch queues and re-homes them over the same
contended WAN channels offloads use.
"""

from .hierarchy import ClusterPath, FederationTree, HierarchyView
from .migration import Rebalancer
from .result import FederatedSimulationResult
from .shard import ClusterShard
from .simulator import FederatedSimulator
from .spec import ClusterSpec, FederationSpec, MigrationSpec, RegionSpec

__all__ = [
    "ClusterSpec",
    "RegionSpec",
    "FederationSpec",
    "MigrationSpec",
    "ClusterShard",
    "FederatedSimulator",
    "FederatedSimulationResult",
    "Rebalancer",
    "ClusterPath",
    "FederationTree",
    "HierarchyView",
]
