"""Trace-driven and cross-traffic scenario presets.

Two presets exercise the trace-ingestion and background-traffic layers
(see docs/WORKLOADS.md for the teaching walk-through):

* :func:`trace_replay` — replays the bundled Google-style cluster-trace
  sample (``src/repro/scenarios/data/google_cluster_sample.csv``) on a
  single heterogeneous cluster. Task types come from quantile-binning the
  trace's ``cpu_request`` column against the EET matrix, deadlines are
  synthesised from per-type relative deadlines, and the whole pipeline is
  a pure function of the scenario seed — the replay is golden-pinned.
* :func:`diurnal_wan` — the contended two-edges-one-cloud federation of
  :func:`~repro.scenarios.federated.fed_congested` with *background
  cross-traffic* on the uplinks: edge_a's FIFO pipe breathes
  with a diurnal sinusoid, edge_b's PS pipe suffers bursty MMPP squeezes.
  Offload decisions that look safe at the nominal bandwidth meet residual
  capacity instead.
"""

from __future__ import annotations

import numpy as np

from ..core.config import Scenario
from ..machines.eet import EETMatrix
from ..machines.power import PowerProfile
from ..net.crosstraffic import DiurnalTraffic, MmppTraffic
from ..tasks.task_type import TaskType
from ..tasks.trace_io import TraceSpec
from .federated import _two_edges_one_cloud
from .registry import register_scenario

__all__ = ["trace_replay", "diurnal_wan"]

#: The bundled cluster-trace sample every trace-layer doctest/preset uses.
SAMPLE_TRACE = "data:google_cluster_sample.csv"


@register_scenario
def trace_replay(
    *,
    scheduler: str = "MECT",
    seed: int = 61,
    sample: float = 1.0,
    max_tasks: int | None = None,
    time_scale: float = 1.0,
    slack_factor: float = 1.0,
) -> Scenario:
    """Replay of the bundled Google-style cluster trace on one cluster.

    The trace has no task-type or deadline columns — the realistic case —
    so the :class:`~repro.tasks.trace_io.TraceSpec` quantile-bins the
    ``cpu_request`` column into the EET's three task types (lightest type
    takes the smallest requests) and synthesises ``deadline = arrival +
    slack_factor * relative_deadline``. ``sample`` < 1 thins the trace
    deterministically under the scenario seed; ``time_scale`` < 1
    compresses the ~460 s arrival span to raise pressure.
    """
    task_types = [
        TaskType("light", 0, relative_deadline=30.0),
        TaskType("standard", 1, relative_deadline=60.0),
        TaskType("heavy", 2, relative_deadline=120.0),
    ]
    eet = EETMatrix(
        np.array(
            [
                # CPU    GPU
                [4.0, 3.0],     # light
                [12.0, 5.0],    # standard
                [30.0, 9.0],    # heavy
            ]
        ),
        task_types,
        ["CPU", "GPU"],
    )
    return Scenario(
        eet=eet,
        machine_counts={"CPU": 4, "GPU": 2},
        scheduler=scheduler,
        trace=TraceSpec(
            path=SAMPLE_TRACE,
            columns={"task_id": "job_id", "arrival_time": "submit_time_us"},
            time_unit=1e-6,
            time_scale=time_scale,
            bin_column="cpu_request",
            slack_factor=slack_factor,
            sample=sample,
            max_tasks=max_tasks,
        ),
        power_profiles={
            "CPU": PowerProfile(idle_watts=10.0, busy_watts=95.0),
            "GPU": PowerProfile(idle_watts=30.0, busy_watts=250.0),
        },
        seed=seed,
        name="trace_replay",
    )


@register_scenario
def diurnal_wan(
    *,
    scheduler: str = "MECT",
    gateway: str = "EET_AWARE_REMOTE",
    gateway_params: dict | None = None,
    intensity: str | float = 1.2,
    duration: float = 300.0,
    seed: int = 67,
    uplink_bandwidth: float = 8.0,
    energy_per_mb: float = 0.35,
    period: float = 120.0,
) -> Scenario:
    """Edge-cloud offloading over WAN uplinks with background cross-traffic.

    The ``fed_congested`` shape — two edge sites shipping large payloads
    into one cloud over narrow energy-metered uplinks — but the pipes are
    no longer the simulation's alone: edge_a's FIFO uplink carries a
    diurnal sinusoid (utilisation swinging 0.05..0.75 with period
    ``period``), and edge_b's PS uplink suffers bursty MMPP cross-traffic
    (long quiet spells at 10% utilisation, squeezes at 75%). Transfers
    serve at the residual capacity ``bandwidth * (1 - u(t))``, so the same
    offload is cheap at night and ruinous at the peak — the signal a
    congestion-aware gateway has to read.
    """
    return _two_edges_one_cloud(
        "diurnal_wan", scheduler=scheduler, gateway=gateway,
        gateway_params=gateway_params, intensity=intensity, duration=duration,
        seed=seed, uplink_bandwidth=uplink_bandwidth, energy_per_mb=energy_per_mb,
        cross_traffic=(
            DiurnalTraffic(period=period, base=0.4, amplitude=0.35),
            MmppTraffic(quiet=0.1, burst=0.75, mean_quiet=40.0, mean_burst=12.0),
        ),
    )
