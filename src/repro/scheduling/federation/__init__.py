"""Gateway (inter-cluster offloading) policy family for federated runs.

Mirrors the local-policy plug-in surface: a base class
(:class:`GatewayPolicy`), a registry (:func:`register_gateway` /
:func:`create_gateway` / :func:`available_gateways`) and five stock
disciplines — locality-first, least-loaded, EET-aware-remote, random-split
and the learning adaptive (bandit) gateway (:mod:`.adaptive`).

The *eviction* policy family (:mod:`.eviction`) is the mid-queue twin:
where gateways decide a task's cluster once at arrival, eviction policies
decide which already-queued tasks a rebalance pass migrates off a saturated
cluster — same registry treatment (:func:`register_eviction` /
:func:`create_eviction`), three stock disciplines (longest-wait,
deadline-slack, EET-gain).
"""

from .adaptive import AdaptiveGateway, ArmStats
from .base import GatewayContext, GatewayPolicy, ShardView
from .eviction import (
    DeadlineSlackEviction,
    EETGainEviction,
    EvictionPolicy,
    LongestWaitEviction,
    MigrationContext,
    available_evictions,
    create_eviction,
    eviction_class,
    register_eviction,
)
from .policies import (
    EETAwareRemoteGateway,
    LeastLoadedGateway,
    LocalityFirstGateway,
    RandomSplitGateway,
)
from .registry import (
    available_gateways,
    create_gateway,
    gateway_class,
    register_gateway,
)
from .tree import TreePressureGateway

__all__ = [
    "GatewayContext",
    "GatewayPolicy",
    "ShardView",
    "LocalityFirstGateway",
    "LeastLoadedGateway",
    "EETAwareRemoteGateway",
    "RandomSplitGateway",
    "AdaptiveGateway",
    "ArmStats",
    "TreePressureGateway",
    "register_gateway",
    "create_gateway",
    "available_gateways",
    "gateway_class",
    "MigrationContext",
    "EvictionPolicy",
    "LongestWaitEviction",
    "DeadlineSlackEviction",
    "EETGainEviction",
    "register_eviction",
    "create_eviction",
    "available_evictions",
    "eviction_class",
]
