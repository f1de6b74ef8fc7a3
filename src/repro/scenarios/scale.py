"""Scale-tier scenario presets — hundreds of machines, tens of thousands of tasks.

The classroom presets (:mod:`repro.scenarios.presets`) stay at the paper's
four-machine scale; this tier exists so the engine's performance headroom is
exercised by *registered, reproducible workloads* rather than only by the
benchmark harness. Three presets, in increasing order of stress:

* :func:`scale_campus` — a campus cluster: 8 machine types × 12 machines
  (96 machines), Poisson arrivals, ~10k tasks at medium intensity.
* :func:`scale_datacenter` — a datacenter population: 12 machine types × 24
  machines (288 machines), ~30k tasks at medium intensity.
* :func:`scale_heavytail` — 128 machines under heavy-tailed (Pareto-II)
  arrivals: dense flash-crowd bursts separated by long silences, the regime
  where queue depths — and scheduling-pass sizes — explode.

All EETs come from the CVB generator (Ali et al. 2000), so heterogeneity is
controlled by two coefficients of variation instead of hand-written tables.
Factories accept the standard ``scheduler`` / ``intensity`` / ``duration`` /
``seed`` keywords so campaign grids can sweep them.
"""

from __future__ import annotations

from ..core.config import Scenario
from ..federation.spec import ClusterSpec, FederationSpec
from ..machines.eet import EETMatrix
from ..machines.eet_generation import generate_eet_cvb
from ..net.topology import InterClusterTopology, Link
from ..tasks.generator import WorkloadGenerator, oversubscription_for_level
from .registry import register_scenario

__all__ = [
    "scale_campus",
    "scale_datacenter",
    "scale_heavytail",
    "scale_federation",
]


def _pareto_specs(
    eet: EETMatrix, machines_per_type: int, intensity: str | float, shape: float
) -> list[dict]:
    """Generator specs with Lomax (Pareto-II) arrivals, one per task type.

    Per-type arrival rates are calibrated exactly like the Poisson
    generator's for *intensity* on *machines_per_type* machines of every
    type; each becomes a Pareto process of tail index *shape* with the same
    mean rate.
    """
    calibrator = WorkloadGenerator(
        eet, machine_counts=[machines_per_type] * len(eet.machine_type_names)
    )
    rates = calibrator.rates_for_oversubscription(
        oversubscription_for_level(intensity)
    )
    return [
        {
            "name": name,
            "arrival": {
                "kind": "pareto",
                "shape": shape,
                # mean gap = scale / (shape - 1)  =>  scale = (shape-1)/rate
                "scale": (shape - 1.0) / rate,
            },
            "slack_factor": 5.0,
        }
        for name, rate in rates.items()
    ]


def _cvb_scenario(
    *,
    name: str,
    n_task_types: int,
    n_machine_types: int,
    machines_per_type: int,
    scheduler: str,
    intensity: str | float,
    duration: float,
    seed: int,
    eet_seed: int,
    mean_task: float,
) -> Scenario:
    eet = generate_eet_cvb(
        n_task_types,
        n_machine_types,
        mean_task=mean_task,
        v_task=0.4,
        v_machine=0.5,
        seed=eet_seed,
    )
    return Scenario(
        eet=eet,
        machine_counts={n: machines_per_type for n in eet.machine_type_names},
        scheduler=scheduler,
        generator={"duration": duration, "intensity": intensity},
        seed=seed,
        name=name,
    )


@register_scenario
def scale_campus(
    *,
    scheduler: str = "MECT",
    intensity: str | float = "medium",
    duration: float = 1200.0,
    seed: int = 101,
    machines_per_type: int = 12,
) -> Scenario:
    """Campus cluster: 96 machines (8 types × 12), ~10k Poisson tasks."""
    return _cvb_scenario(
        name="scale_campus",
        n_task_types=6,
        n_machine_types=8,
        machines_per_type=machines_per_type,
        scheduler=scheduler,
        intensity=intensity,
        duration=duration,
        seed=seed,
        eet_seed=17,
        mean_task=12.0,
    )


@register_scenario
def scale_datacenter(
    *,
    scheduler: str = "MECT",
    intensity: str | float = "medium",
    duration: float = 1500.0,
    seed: int = 103,
    machines_per_type: int = 24,
) -> Scenario:
    """Datacenter population: 288 machines (12 types × 24), ~30k tasks."""
    return _cvb_scenario(
        name="scale_datacenter",
        n_task_types=8,
        n_machine_types=12,
        machines_per_type=machines_per_type,
        scheduler=scheduler,
        intensity=intensity,
        duration=duration,
        seed=seed,
        eet_seed=19,
        mean_task=15.0,
    )


@register_scenario
def scale_heavytail(
    *,
    scheduler: str = "MECT",
    intensity: str | float = 2.0,
    duration: float = 1500.0,
    seed: int = 107,
    machines_per_type: int = 16,
    shape: float = 1.6,
) -> Scenario:
    """128 machines under heavy-tailed (Pareto-II) flash-crowd arrivals.

    Every task type arrives via a Lomax process with tail index ``shape``
    (1 < shape <= 2 has infinite variance): long quiet stretches, then
    bursts that pile tens of tasks into the batch queue at once. The mean
    gap per type is calibrated so total offered load ≈ ``intensity`` ×
    system capacity, mirroring the Poisson presets' oversubscription knob.
    """
    eet = generate_eet_cvb(
        6,
        8,
        mean_task=12.0,
        v_task=0.4,
        v_machine=0.5,
        seed=23,
    )
    return Scenario(
        eet=eet,
        machine_counts={n: machines_per_type for n in eet.machine_type_names},
        scheduler=scheduler,
        generator={
            "duration": duration,
            "specs": _pareto_specs(eet, machines_per_type, intensity, shape),
        },
        seed=seed,
        name="scale_heavytail",
    )


@register_scenario
def scale_federation(
    *,
    scheduler: str = "MM",
    gateway: str = "RANDOM_SPLIT",
    intensity: str | float = "medium",
    duration: float = 300.0,
    seed: int = 109,
    n_clusters: int = 24,
    machines_per_type: int = 8,
    wan_latency: float = 0.35,
    wan_bandwidth: float = 200.0,
) -> Scenario:
    """A geo-distributed federation: 24 sites, 1152 machines, ~30k tasks.

    The scale tier of the federation layer: ``n_clusters`` identical sites
    (6 CVB machine types × ``machines_per_type`` machines each) behind a
    uniform high-latency WAN, with arrivals split evenly across sites and a
    weighted-random gateway scattering each task to a uniformly chosen
    destination — the classic probabilistic load-sharing discipline at the
    scale where it is actually used.

    Every arrival costs one random-split draw (a bisect of cached
    cumulative weights) and one single-task Min-Min pass (a scalar argmin
    over the destination's machines), so the run measures the serial
    federated hot path: event loop, WAN hand-off, shard completions and a
    24-shard result build.
    """
    eet = generate_eet_cvb(
        6,
        6,
        mean_task=12.0,
        v_task=0.4,
        v_machine=0.5,
        seed=29,
    )
    names = [f"site{i:02d}" for i in range(n_clusters)]
    federation = FederationSpec(
        clusters=[
            ClusterSpec(
                name=name,
                machine_counts={
                    t: machines_per_type for t in eet.machine_type_names
                },
                weight=1.0,
            )
            for name in names
        ],
        gateway=gateway,
        topology=InterClusterTopology(
            default=Link(wan_latency, wan_bandwidth)
        ),
    )
    return Scenario(
        eet=eet,
        # Workload calibration sees the whole federation's machine pool.
        machine_counts=federation.total_machine_counts(),
        scheduler=scheduler,
        generator={
            "duration": duration,
            "intensity": intensity,
            "specs": [
                {"name": name, "share": 1.0, "slack_factor": 6.0}
                for name in eet.task_type_names
            ],
        },
        federation=federation,
        seed=seed,
        name="scale_federation",
    )
