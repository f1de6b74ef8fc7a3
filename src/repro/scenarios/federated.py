"""Federated scenario presets — multi-cluster systems with WAN offloading.

The paper's Fig. 1 is one scheduler over one machine pool; its future work
names "various communication paradigms" and larger heterogeneous
deployments. These six presets exercise the federation layer
(:mod:`repro.federation`) on the multi-site shapes of the
heterogeneous-computing literature:

* :func:`edge_cloud` — the 2-site offloading classic: a small, battery-class
  edge cluster where all tasks arrive, and a remote cloud with far faster
  machines across a WAN link. The gateway decides keep-vs-offload per task.
* :func:`geo_3site` — three geo-distributed sites with asymmetric WAN
  latencies and their own machine mixes; arrivals split across all sites.
* :func:`fed_heavytail` — two sites under heavy-tailed (Pareto-II)
  flash-crowd arrivals: bursts overwhelm the origin site and the gateway's
  spill decisions dominate the outcome.
* :func:`fed_rebalance` and :func:`fed_adaptive` — the edge–cloud model as
  an oversubscribed *access* site relieved over one narrow FIFO uplink: by
  mid-queue migration behind a sticky gateway, and by a learning gateway
  with hysteresis relief.
* :func:`fed_congested` — two edge sites offloading into one cloud over
  contended, energy-metered uplinks (FIFO and processor sharing).

Four of them and :func:`~repro.scenarios.traces.diurnal_wan` share one
edge–cloud model (:func:`_edge_cloud`: task types, EETs, arrival specs and
power profiles). Every preset's ``machine_counts`` is its federation's total.

All factories accept ``scheduler`` (the local, per-cluster policy),
``gateway`` (the inter-cluster offloading policy), ``intensity``,
``duration`` and ``seed`` so campaign grids can sweep offloading x local
policy combinations like any other preset.
"""

from __future__ import annotations

import numpy as np

from ..core.config import Scenario
from ..core.errors import UnknownGatewayError
from ..federation.spec import ClusterSpec, FederationSpec, MigrationSpec
from ..machines.eet import EETMatrix
from ..machines.eet_generation import generate_eet_cvb
from ..machines.machine import UNBOUNDED
from ..machines.power import PowerProfile
from ..net.topology import CrossTraffic, InterClusterTopology, Link
from ..scheduling.federation.registry import gateway_class
from ..tasks.task_type import TaskType
from .registry import register_scenario
from .scale import _pareto_specs

__all__ = [
    "edge_cloud",
    "geo_3site",
    "fed_heavytail",
    "fed_congested",
    "fed_rebalance",
    "fed_adaptive",
]


def _edge_cloud(
    name: str,
    machine_types: tuple[str, str, str],
    federation: FederationSpec,
    *,
    scheduler: str,
    intensity: str | float,
    duration: float,
    seed: int,
    queue_capacity: float = UNBOUNDED,
) -> Scenario:
    """The edge–cloud model on *federation*, a scenario named *name*.

    Three task types run on the machine types *machine_types* names: a
    slow, frugal CPU, then a fast CPU and a GPU.
    """
    small_cpu, big_cpu, big_gpu = machine_types
    task_types = [
        TaskType("video_analytics", 0, data_in=8.0),
        TaskType("sensor_fusion", 1, data_in=0.5),
        TaskType("model_update", 2, data_in=20.0),
    ]
    eet = EETMatrix(
        np.array(
            [
                # small_cpu  big_cpu  big_gpu
                [25.0, 8.0, 2.5],    # video analytics
                [6.0, 3.0, 2.0],     # sensor fusion
                [40.0, 12.0, 4.0],   # model update
            ]
        ),
        task_types,
        list(machine_types),
    )
    return Scenario(
        eet=eet,
        machine_counts=federation.total_machine_counts(),
        scheduler=scheduler,
        queue_capacity=queue_capacity,
        generator={
            "duration": duration,
            "intensity": intensity,
            "specs": [
                {"name": "video_analytics", "share": 1.0, "slack_factor": 4.0},
                {"name": "sensor_fusion", "share": 2.0, "slack_factor": 5.0},
                {"name": "model_update", "share": 0.5, "slack_factor": 6.0},
            ],
        },
        power_profiles={
            small_cpu: PowerProfile(idle_watts=3.0, busy_watts=9.0),
            big_cpu: PowerProfile(idle_watts=40.0, busy_watts=120.0),
            big_gpu: PowerProfile(idle_watts=35.0, busy_watts=260.0),
        },
        federation=federation,
        seed=seed,
        name=name,
    )


def _access_relief(
    name: str,
    *,
    scheduler: str,
    gateway: str,
    gateway_params: dict | None,
    gateway_defaults: dict[str, dict],
    migration: str | dict | MigrationSpec | None,
    cadence: dict,
    intensity: str | float,
    duration: float,
    seed: int,
    uplink_bandwidth: float,
    energy_per_mb: float,
) -> Scenario:
    """The edge–cloud model as a slow *access* site relieved by a fast one.

    Every task arrives at the access site's four CPUs; the *relief* site's
    CPUs and GPUs sit behind one narrow, energy-metered FIFO uplink, and
    machine queues hold one task. A policy name in *migration* becomes a
    :class:`MigrationSpec` with the preset's *cadence* fields; a dict is
    read as one. *gateway_defaults* maps a canonical gateway name to the
    parameters the preset sets for that gateway unless *gateway_params*
    does; an alias finds its gateway's entry.
    """
    if isinstance(migration, str):
        # An aggressive cadence on purpose: the access site oversubscribes
        # its four CPUs ~1.3x, so relief must move ~2-3 tasks/s to keep up.
        migration = MigrationSpec(
            policy=migration, pressure_gap=0.5, batch_max=8, **cadence
        )
    elif migration is not None and not isinstance(migration, MigrationSpec):
        migration = MigrationSpec.from_dict(migration)
    topology = InterClusterTopology()
    topology.set_link(
        "access", "relief", 0.05, uplink_bandwidth,
        contention="fifo", energy_per_mb=energy_per_mb,
        idle_watts=2.0, busy_watts=12.0,
    )
    gparams = dict(gateway_params or {})
    try:
        defaults = gateway_defaults.get(gateway_class(gateway).name, {})
    except UnknownGatewayError:
        defaults = {}  # Scenario.check_recipe refuses the name
    for key, value in defaults.items():
        gparams.setdefault(key, value)
    federation = FederationSpec(
        clusters=[
            ClusterSpec(
                name="access",
                machine_counts={"access_cpu": 4},
                weight=1.0,
            ),
            ClusterSpec(
                name="relief",
                machine_counts={"relief_cpu": 4, "relief_gpu": 2},
                weight=0.0,  # migration/offload target only
            ),
        ],
        gateway=gateway,
        gateway_params=gparams,
        topology=topology,
        migration=migration,
    )
    return _edge_cloud(
        name, ("access_cpu", "relief_cpu", "relief_gpu"), federation,
        scheduler=scheduler, intensity=intensity, duration=duration, seed=seed,
        queue_capacity=1.0,
    )


def _two_edges_one_cloud(
    name: str,
    *,
    scheduler: str,
    gateway: str,
    gateway_params: dict | None,
    intensity: str | float,
    duration: float,
    seed: int,
    uplink_bandwidth: float,
    energy_per_mb: float,
    cross_traffic: tuple[CrossTraffic | None, CrossTraffic | None] = (None, None),
) -> Scenario:
    """The edge–cloud model on two edge sites that offload into one cloud.

    Each edge site has three CPUs and takes half the arrivals. edge_a's
    uplink runs FIFO and edge_b's processor sharing, both narrow and
    energy-metered; *cross_traffic* is the background process of each
    uplink, in that order. A wide PS link joins the two edges.
    """
    fifo_traffic, ps_traffic = cross_traffic
    topology = InterClusterTopology()
    topology.set_link(
        "edge_a", "cloud", 0.05, uplink_bandwidth,
        contention="fifo", energy_per_mb=energy_per_mb,
        idle_watts=2.0, busy_watts=12.0, cross_traffic=fifo_traffic,
    )
    topology.set_link(
        "edge_b", "cloud", 0.05, uplink_bandwidth,
        contention="ps", energy_per_mb=energy_per_mb,
        idle_watts=2.0, busy_watts=12.0, cross_traffic=ps_traffic,
    )
    topology.set_link(
        "edge_a", "edge_b", 0.02, 40.0,
        contention="ps", energy_per_mb=energy_per_mb / 2,
    )
    federation = FederationSpec(
        clusters=[
            ClusterSpec(
                name="edge_a",
                machine_counts={"edge_cpu": 3},
                weight=1.0,
            ),
            ClusterSpec(
                name="edge_b",
                machine_counts={"edge_cpu": 3},
                weight=1.0,
            ),
            ClusterSpec(
                name="cloud",
                machine_counts={"cloud_cpu": 4, "cloud_gpu": 2},
                weight=0.0,  # offloading target only
            ),
        ],
        gateway=gateway,
        gateway_params=dict(gateway_params or {}),
        topology=topology,
    )
    return _edge_cloud(
        name, ("edge_cpu", "cloud_cpu", "cloud_gpu"), federation,
        scheduler=scheduler, intensity=intensity, duration=duration, seed=seed,
    )


@register_scenario
def edge_cloud(
    *,
    scheduler: str = "MECT",
    gateway: str = "EET_AWARE_REMOTE",
    gateway_params: dict | None = None,
    intensity: str | float = "medium",
    duration: float = 400.0,
    seed: int = 19,
    wan_latency: float = 0.08,
    wan_bandwidth: float = 25.0,
    wan_contention: str = "none",
    wan_energy_per_mb: float = 0.0,
) -> Scenario:
    """Edge-cloud offloading: 4 edge CPUs vs a 6-machine cloud over a WAN.

    Every task arrives at the edge; the gateway chooses between the local,
    slow-but-free edge CPUs and the fast cloud machines that cost a WAN
    round of ``wan_latency + data_in / wan_bandwidth`` seconds. Video
    analytics (8 MB payloads) and model updates (20 MB) make that trade-off
    non-trivial, sensor fusion (0.5 MB) is cheap to ship but also cheap to
    run locally.

    The contended-WAN variant: pass ``wan_contention="fifo"`` (or ``"ps"``)
    to make concurrent offloads queue for the link instead of overlapping
    for free, and ``wan_energy_per_mb`` to charge each shipped megabyte
    (see :mod:`repro.net.wan` and the ``fed_congested`` preset).
    """
    federation = FederationSpec(
        clusters=[
            ClusterSpec(
                name="edge",
                machine_counts={"edge_cpu": 4},
                weight=1.0,
            ),
            ClusterSpec(
                name="cloud",
                machine_counts={"cloud_cpu": 4, "cloud_gpu": 2},
                weight=0.0,  # tasks never *arrive* here; offloading only
            ),
        ],
        gateway=gateway,
        gateway_params=dict(gateway_params or {}),
        topology=InterClusterTopology(
            default=Link(
                wan_latency,
                wan_bandwidth,
                contention=wan_contention,
                energy_per_mb=wan_energy_per_mb,
            )
        ),
    )
    return _edge_cloud(
        "edge_cloud", ("edge_cpu", "cloud_cpu", "cloud_gpu"), federation,
        scheduler=scheduler, intensity=intensity, duration=duration, seed=seed,
    )


@register_scenario
def geo_3site(
    *,
    scheduler: str = "MECT",
    gateway: str = "LEAST_LOADED",
    gateway_params: dict | None = None,
    intensity: str | float = "medium",
    duration: float = 600.0,
    seed: int = 23,
    wan_contention: str = "none",
) -> Scenario:
    """Three geo-distributed sites with asymmetric WAN latencies.

    Six CVB-generated machine types are split two per site (a big/little
    pair each); arrivals originate at all three sites in a 3:2:1 ratio.
    The WAN triangle is asymmetric — the long haul costs 3x the short hop —
    so pure load balancing and locality make measurably different choices.
    ``wan_contention`` applies one queueing discipline (``"fifo"``/``"ps"``)
    to all three links of the triangle.
    """
    eet = generate_eet_cvb(
        5,
        6,
        mean_task=14.0,
        v_task=0.4,
        v_machine=0.6,
        seed=29,
        machine_type_names=[
            "ams_big", "ams_little",
            "nyc_big", "nyc_little",
            "tyo_big", "tyo_little",
        ],
    )
    topology = InterClusterTopology()
    topology.set_link("ams", "nyc", 0.04, 60.0, contention=wan_contention)
    topology.set_link("nyc", "tyo", 0.09, 40.0, contention=wan_contention)
    topology.set_link("ams", "tyo", 0.12, 40.0, contention=wan_contention)
    federation = FederationSpec(
        clusters=[
            ClusterSpec(
                name="ams",
                machine_counts={"ams_big": 2, "ams_little": 4},
                weight=3.0,
            ),
            ClusterSpec(
                name="nyc",
                machine_counts={"nyc_big": 2, "nyc_little": 4},
                weight=2.0,
            ),
            ClusterSpec(
                name="tyo",
                machine_counts={"tyo_big": 2, "tyo_little": 4},
                weight=1.0,
            ),
        ],
        gateway=gateway,
        gateway_params=dict(gateway_params or {}),
        topology=topology,
    )
    return Scenario(
        eet=eet,
        machine_counts=federation.total_machine_counts(),
        scheduler=scheduler,
        generator={"duration": duration, "intensity": intensity},
        federation=federation,
        seed=seed,
        name="geo_3site",
    )


@register_scenario
def fed_heavytail(
    *,
    scheduler: str = "MECT",
    gateway: str = "LOCALITY_FIRST",
    gateway_params: dict | None = None,
    intensity: str | float = 1.5,
    duration: float = 900.0,
    seed: int = 31,
    shape: float = 1.6,
    machines_per_type: int = 6,
) -> Scenario:
    """Two sites under heavy-tailed (Pareto-II) flash-crowd arrivals.

    The access site takes 70% of arrivals on a quarter of the machines; the
    core site holds the rest behind a 60 ms WAN hop. Lomax inter-arrivals
    (tail index ``shape``; infinite variance for ``shape <= 2``) produce
    long silences punctuated by bursts that saturate the access site — the
    regime where the gateway's spill threshold decides the outcome.
    """
    eet = generate_eet_cvb(
        4,
        4,
        mean_task=12.0,
        v_task=0.4,
        v_machine=0.5,
        seed=37,
        machine_type_names=["access_cpu", "core_a", "core_b", "core_c"],
    )
    # The scale_heavytail recipe, federated.
    specs = _pareto_specs(eet, machines_per_type, intensity, shape)
    federation = FederationSpec(
        clusters=[
            ClusterSpec(
                name="access",
                machine_counts={"access_cpu": machines_per_type},
                weight=0.7,
            ),
            ClusterSpec(
                name="core",
                machine_counts={
                    n: machines_per_type for n in ("core_a", "core_b", "core_c")
                },
                weight=0.3,
            ),
        ],
        gateway=gateway,
        gateway_params=dict(gateway_params or {}),
        topology=InterClusterTopology(default=Link(0.06, 0.0)),
    )
    return Scenario(
        eet=eet,
        machine_counts=federation.total_machine_counts(),
        scheduler=scheduler,
        generator={"duration": duration, "specs": specs},
        federation=federation,
        seed=seed,
        name="fed_heavytail",
    )


@register_scenario
def fed_rebalance(
    *,
    scheduler: str = "MM",
    gateway: str = "LOCALITY_FIRST",
    gateway_params: dict | None = None,
    migration: str | dict | MigrationSpec | None = "LONGEST_WAIT",
    migration_interval: float = 3.0,
    intensity: str | float = 1.3,
    duration: float = 300.0,
    seed: int = 53,
    uplink_bandwidth: float = 10.0,
    energy_per_mb: float = 0.3,
) -> Scenario:
    """Mid-queue migration over a contended WAN: a sticky gateway, relieved.

    Every task arrives at a small, slow *access* site whose batch policy
    (MM, bounded machine queues) lets the batch queue pile up under the
    1.3x-oversubscribed load; the *relief* site's fast machines idle across
    a single narrow FIFO uplink. The gateway is deliberately sticky
    (LOCALITY_FIRST with a high threshold): it routes each task exactly
    once, at arrival, and by the time the access queue saturates those
    decisions are stale — the regime mid-queue migration exists for. A
    periodic rebalance pass (eviction policy ``migration``, default
    LONGEST_WAIT) re-homes queued tasks over the same energy-metered,
    contention-modelled link any gateway offload would use — one pipe,
    whoever is sending — and under the default cadence the narrow uplink
    saturates, so some migrations expire in flight (the FIFO queue's wait
    eats their slack): the LONGEST_WAIT-vs-DEADLINE_SLACK comparison in
    docs/FEDERATION.md §6 hinges on exactly that waste.

    Pass ``migration=None`` to run the identical scenario without the
    rebalancer (the control arm of the teaching comparison), or a
    :class:`~repro.federation.spec.MigrationSpec`-shaped dict / policy name
    to sweep eviction disciplines.
    """
    return _access_relief(
        "fed_rebalance", scheduler=scheduler, gateway=gateway,
        gateway_params=gateway_params,
        # Sticky by default: the gateway only spills once pressure hits 16
        # outstanding tasks per machine — far past saturation — so relief
        # comes from migration, not arrival routing. (With the default
        # rebalancer active the queue never gets that deep, so arrival
        # offloads stay at zero.) Override via gateway_params.
        gateway_defaults={"LOCALITY_FIRST": {"threshold": 16.0}},
        migration=migration, cadence={"interval": migration_interval},
        intensity=intensity, duration=duration, seed=seed,
        uplink_bandwidth=uplink_bandwidth, energy_per_mb=energy_per_mb,
    )


@register_scenario
def fed_adaptive(
    *,
    scheduler: str = "MM",
    gateway: str = "ADAPTIVE",
    gateway_params: dict | None = None,
    migration: str | dict | MigrationSpec | None = "LONGEST_WAIT",
    migration_interval: float = 3.0,
    high_watermark: float = 2.5,
    low_watermark: float = 1.0,
    intensity: str | float = 1.3,
    duration: float = 400.0,
    seed: int = 61,
    uplink_bandwidth: float = 10.0,
    energy_per_mb: float = 0.3,
) -> Scenario:
    """The learning gateway's home turf: bandit routing + hysteresis relief.

    The same two-site shape as :func:`fed_rebalance` — a slow,
    oversubscribed *access* site, a fast *relief* site behind one narrow,
    energy-metered FIFO uplink — but wired for the adaptive policy layer:
    the default gateway is the UCB bandit (:class:`~repro.scheduling.
    federation.adaptive.AdaptiveGateway`), and the rebalancer runs the
    watermarked hysteresis trigger (shedding starts above
    ``high_watermark``, stops at ``low_watermark``) instead of a single
    fixed threshold. Batch scheduling (MM, tight machine queues) makes the
    analytic gateways' completion estimates blind to the batch-queue
    backlog — exactly the information the bandit recovers from observed
    deadline outcomes, which is why it out-completes EET_AWARE_REMOTE here
    (the golden suite pins that comparison).

    Sweep ``gateway``/``migration`` like any other preset; the tournament
    harness (``e2c-sim tournament``) uses exactly those two knobs.
    """
    return _access_relief(
        "fed_adaptive", scheduler=scheduler, gateway=gateway,
        gateway_params=gateway_params,
        gateway_defaults={
            # UCB explores harder than the epsilon default and wins this
            # scenario decisively; override via gateway_params.
            "ADAPTIVE": {"strategy": "ucb", "ucb_c": 1.0},
            # Same stickiness as fed_rebalance: relief via migration, not
            # arrival routing.
            "LOCALITY_FIRST": {"threshold": 16.0},
        },
        migration=migration,
        cadence={
            "interval": migration_interval,
            "high_watermark": high_watermark,
            "low_watermark": low_watermark,
        },
        intensity=intensity, duration=duration, seed=seed,
        uplink_bandwidth=uplink_bandwidth, energy_per_mb=energy_per_mb,
    )


@register_scenario
def fed_congested(
    *,
    scheduler: str = "MECT",
    gateway: str = "EET_AWARE_REMOTE",
    gateway_params: dict | None = None,
    intensity: str | float = 1.4,
    duration: float = 300.0,
    seed: int = 43,
    uplink_bandwidth: float = 8.0,
    energy_per_mb: float = 0.35,
) -> Scenario:
    """Two edge sites offloading into one cloud over *contended* WAN links.

    The scenario the WAN-as-queueing-resource model exists for: both edge
    sites ship large payloads toward the same cloud, but each uplink is a
    narrow pipe — edge_a's runs FIFO (transfers serialise, latecomers
    wait), edge_b's runs processor sharing (everyone crawls together) — so
    offloading decisions that look free under the overlap model pile up
    real queueing delay here. Every link also carries an energy price
    (``energy_per_mb`` J/MB plus idle/active port power), making the
    edge-vs-cloud ``energy_per_completed_task`` split non-trivial: the
    cloud runs tasks faster and cheaper per joule, but only after paying to
    ship the payload. The default congestion-aware EET_AWARE_REMOTE gateway
    reads the link backlog and keeps traffic home once the pipes fill.
    """
    return _two_edges_one_cloud(
        "fed_congested", scheduler=scheduler, gateway=gateway,
        gateway_params=gateway_params, intensity=intensity, duration=duration,
        seed=seed, uplink_bandwidth=uplink_bandwidth, energy_per_mb=energy_per_mb,
    )
