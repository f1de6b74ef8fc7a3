"""Hierarchical federation presets — multi-level trees with shared uplinks.

The flat federated presets (:mod:`repro.scenarios.federated`) are cliques of
a few sites. These two presets exercise tree routing
(:mod:`repro.federation.hierarchy`): placement happens level by level
(which region, then which site, then which cluster) and every WAN crossing
hops child↔parent uplinks shared by whole subtrees.

* :func:`hier_3region` — the regular shape: 3 regions × 3 sites × 2
  clusters (18 leaves, 4 levels counting the root). Region uplinks are
  narrow and FIFO-contended, site uplinks comfortable, so the interesting
  congestion is at the *region* level — exactly where flat presets cannot
  put it.
* :func:`hier_deep` — the irregular shape: four levels with leaves at
  mixed depths (a depth-1 cloud hangs directly off the root next to a
  deep edge hierarchy), asymmetric fan-out, and one deliberately skinny
  deep-edge uplink.

Both run the tree-capable ``TREE_PRESSURE`` gateway by default (flat
gateways are refused on a tree) and accept the usual
``scheduler`` / ``gateway`` / ``intensity`` / ``duration`` / ``seed``
overrides for campaign grids.
"""

from __future__ import annotations

import numpy as np

from ..core.config import Scenario
from ..federation.spec import ClusterSpec, FederationSpec, RegionSpec
from ..machines.eet import EETMatrix
from ..machines.power import PowerProfile
from ..net.topology import InterClusterTopology, Link
from ..tasks.task_type import TaskType
from .registry import register_scenario

__all__ = ["hier_3region", "hier_deep"]


@register_scenario
def hier_3region(
    *,
    scheduler: str = "MECT",
    gateway: str = "TREE_PRESSURE",
    gateway_params: dict | None = None,
    intensity: str | float = "medium",
    duration: float = 240.0,
    seed: int = 47,
    region_bandwidth: float = 18.0,
    site_bandwidth: float = 60.0,
) -> Scenario:
    """3 regions × 3 sites × 2 clusters: the regular planet-scale tree.

    Eighteen leaf clusters share two machine types (a big/little pair);
    within a region the three sites differ only in machine mix, so the
    gateway's region choice is driven by rolled-up pressure and uplink
    backlog rather than raw speed. Region uplinks
    (``region_bandwidth`` MB/s, FIFO, energy-metered) are ~3× narrower
    than site uplinks — congestion forms at the top of the tree, where a
    busy region back-pressures all nine clusters beneath it.
    """
    task_types = [
        TaskType("inference", 0, data_in=3.0),
        TaskType("ingest", 1, data_in=9.0),
    ]
    eet = EETMatrix(
        np.array(
            [
                # big   little
                [4.0, 9.0],     # inference
                [11.0, 24.0],   # ingest
            ]
        ),
        task_types,
        ["big", "little"],
    )
    regions = []
    for r in ("ap", "eu", "us"):
        sites = []
        for s, counts in (
            ("core", {"big": 2}),
            ("metro", {"big": 1, "little": 1}),
            ("edge", {"little": 2}),
        ):
            sites.append(
                RegionSpec(
                    name=f"{r}-{s}",
                    uplink=Link(0.012, site_bandwidth, contention="fifo"),
                    children=[
                        ClusterSpec(
                            name=f"{r}-{s}-{c}",
                            machine_counts=dict(counts),
                            weight=1.0,
                        )
                        for c in ("a", "b")
                    ],
                )
            )
        regions.append(
            RegionSpec(
                name=r,
                uplink=Link(
                    0.09,
                    region_bandwidth,
                    contention="fifo",
                    energy_per_mb=0.6,
                ),
                children=sites,
            )
        )
    federation = FederationSpec(
        children=regions,
        gateway=gateway,
        gateway_params=dict(gateway_params or {}),
        # Default uplink for any node without an explicit one (none here,
        # but the knob documents where inherited edges come from).
        topology=InterClusterTopology(
            default=Link(0.02, site_bandwidth, contention="fifo")
        ),
    )
    return Scenario(
        eet=eet,
        machine_counts=federation.total_machine_counts(),
        scheduler=scheduler,
        generator={
            "duration": duration,
            "intensity": intensity,
            "specs": [
                {"name": "inference", "share": 3.0, "slack_factor": 5.0},
                {"name": "ingest", "share": 1.0, "slack_factor": 6.0},
            ],
        },
        power_profiles={
            "big": PowerProfile(idle_watts=18.0, busy_watts=95.0),
            "little": PowerProfile(idle_watts=4.0, busy_watts=14.0),
        },
        federation=federation,
        seed=seed,
        name="hier_3region",
    )


@register_scenario
def hier_deep(
    *,
    scheduler: str = "MECT",
    gateway: str = "TREE_PRESSURE",
    gateway_params: dict | None = None,
    intensity: str | float = "medium",
    duration: float = 300.0,
    seed: int = 53,
    deep_bandwidth: float = 6.0,
) -> Scenario:
    """4-level asymmetric tree with leaves at mixed depths.

    One fast cloud cluster hangs directly off the root (depth 1) next to a
    deep edge hierarchy: a region holding a metro site (two clusters,
    depth 3) and a rural site that nests a far-edge micro-site (two
    clusters at depth 4 behind a skinny ``deep_bandwidth`` MB/s uplink).
    All arrivals originate in the edge subtree; shipping work to the cloud
    crosses two or three shared uplinks, so the gateway trades queueing
    at slow edge machines against a WAN path whose *deepest* segment is
    the bottleneck.
    """
    task_types = [
        TaskType("telemetry", 0, data_in=1.0),
        TaskType("batch", 1, data_in=14.0),
    ]
    eet = EETMatrix(
        np.array(
            [
                # cloud  metro  far
                [2.0, 5.0, 12.0],    # telemetry
                [6.0, 16.0, 45.0],   # batch
            ]
        ),
        task_types,
        ["cloud", "metro", "far"],
    )
    federation = FederationSpec(
        children=[
            ClusterSpec(
                name="cloud-0",
                machine_counts={"cloud": 4},
                weight=0.0,  # offload-only; nothing arrives in the cloud
                uplink=Link(0.05, 40.0, contention="fifo", energy_per_mb=0.4),
            ),
            RegionSpec(
                name="edge",
                uplink=Link(0.07, 16.0, contention="fifo", energy_per_mb=0.8),
                children=[
                    RegionSpec(
                        name="metro",
                        uplink=Link(0.015, 30.0, contention="fifo"),
                        children=[
                            ClusterSpec(
                                name="metro-a",
                                machine_counts={"metro": 2},
                                weight=2.0,
                            ),
                            ClusterSpec(
                                name="metro-b",
                                machine_counts={"metro": 2},
                                weight=2.0,
                            ),
                        ],
                    ),
                    RegionSpec(
                        name="rural",
                        uplink=Link(0.04, 10.0, contention="fifo"),
                        children=[
                            RegionSpec(
                                name="far-edge",
                                uplink=Link(
                                    0.02, deep_bandwidth, contention="fifo"
                                ),
                                children=[
                                    ClusterSpec(
                                        name="far-a",
                                        machine_counts={"far": 1},
                                        weight=1.0,
                                    ),
                                    ClusterSpec(
                                        name="far-b",
                                        machine_counts={"far": 1},
                                        weight=1.0,
                                    ),
                                ],
                            ),
                        ],
                    ),
                ],
            ),
        ],
        gateway=gateway,
        gateway_params=dict(gateway_params or {}),
        topology=InterClusterTopology(
            default=Link(0.02, 25.0, contention="fifo")
        ),
    )
    return Scenario(
        eet=eet,
        machine_counts=federation.total_machine_counts(),
        scheduler=scheduler,
        generator={
            "duration": duration,
            "intensity": intensity,
            "specs": [
                {"name": "telemetry", "share": 4.0, "slack_factor": 5.0},
                {"name": "batch", "share": 1.0, "slack_factor": 7.0},
            ],
        },
        power_profiles={
            "cloud": PowerProfile(idle_watts=45.0, busy_watts=150.0),
            "metro": PowerProfile(idle_watts=10.0, busy_watts=35.0),
            "far": PowerProfile(idle_watts=2.5, busy_watts=8.0),
        },
        federation=federation,
        seed=seed,
        name="hier_deep",
    )
