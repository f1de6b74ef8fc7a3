"""Stock scenario presets — ready-made systems for examples, tests and teaching.

Three scenario families the paper's introduction motivates, each registered
in the scenario registry so campaigns (``repro.experiments``) and the CLI can
reference them by name:

* :func:`satellite_imaging` — "a heterogeneous system processing satellite
  images should support task types for object detection, noise removal, and
  image enhancements" (§3), on a CPU/GPU/FPGA mix.
* :func:`edge_ai` — the IoT/edge-AI system of §1 (object detection, face
  recognition, speech recognition on ARM CPUs, an edge GPU and an ASIC), with
  realistic power profiles for energy studies.
* :func:`classroom_homogeneous` — the four identical machines of the
  assignment's homogeneous part.

All return a :class:`~repro.core.config.Scenario` you can re-parameterise via
``with_scheduler``.
"""

from __future__ import annotations

import numpy as np

from ..core.config import Scenario
from ..machines.eet import EETMatrix
from ..machines.failures import FailureModel
from ..machines.power import PowerProfile
from ..tasks.task_type import TaskType
from .registry import register_scenario

__all__ = ["satellite_imaging", "edge_ai", "classroom_homogeneous"]


@register_scenario
def satellite_imaging(
    *,
    scheduler: str = "MECT",
    intensity: str | float = "medium",
    duration: float = 600.0,
    seed: int = 7,
    mtbf: float | None = None,
    mttr: float = 30.0,
) -> Scenario:
    """Satellite image-processing pipeline on a CPU/GPU/FPGA cluster.

    EETs encode the usual affinities: object detection is far faster on the
    GPU, noise removal vectorises well on the FPGA, enhancement is mildly
    GPU-friendly. Machine counts: 2 CPUs, 1 GPU, 1 FPGA. Pass ``mtbf`` (and
    optionally ``mttr``) to enable the failure-injection extension —
    exponential crash/repair cycles on every machine.
    """
    task_types = [
        TaskType("object_detection", 0),
        TaskType("noise_removal", 1),
        TaskType("image_enhancement", 2),
    ]
    eet = EETMatrix(
        np.array(
            [
                # CPU    GPU   FPGA
                [40.0, 6.0, 18.0],   # object detection
                [14.0, 9.0, 4.0],    # noise removal
                [10.0, 5.0, 8.0],    # image enhancement
            ]
        ),
        task_types,
        ["CPU", "GPU", "FPGA"],
    )
    return Scenario(
        eet=eet,
        machine_counts={"CPU": 2, "GPU": 1, "FPGA": 1},
        scheduler=scheduler,
        queue_capacity=3,
        generator={
            "duration": duration,
            "intensity": intensity,
            "specs": [
                {"name": "object_detection", "share": 1.0, "slack_factor": 4.0},
                {"name": "noise_removal", "share": 2.0, "slack_factor": 5.0},
                {"name": "image_enhancement", "share": 1.5, "slack_factor": 6.0},
            ],
        },
        power_profiles={
            "CPU": PowerProfile(idle_watts=35.0, busy_watts=95.0),
            "GPU": PowerProfile(idle_watts=30.0, busy_watts=250.0),
            "FPGA": PowerProfile(idle_watts=10.0, busy_watts=40.0),
        },
        failure_model=(
            None if mtbf is None else FailureModel(mtbf=mtbf, mttr=mttr)
        ),
        seed=seed,
        name="satellite_imaging",
    )


@register_scenario
def edge_ai(
    *,
    scheduler: str = "FELARE",
    intensity: str | float = "high",
    duration: float = 400.0,
    seed: int = 11,
    with_network: bool = False,
) -> Scenario:
    """Multi-tenant edge-AI services on ARM CPUs + edge GPU + inference ASIC.

    The §1 motivating system: smart applications (object detection, face
    recognition, speech recognition) served at the edge. The ASIC crushes
    face recognition but cannot run speech at all competitively; per-type
    busy-power overrides model the accelerator's efficiency. Optional star
    network with per-link latency/bandwidth exercises the communication
    extension.
    """
    task_types = [
        TaskType("object_detection", 0, data_in=4.0, memory=900.0),
        TaskType("face_recognition", 1, data_in=1.0, memory=600.0),
        TaskType("speech_recognition", 2, data_in=0.5, memory=400.0),
    ]
    eet = EETMatrix(
        np.array(
            [
                # ARM    eGPU   ASIC
                [30.0, 5.0, 8.0],     # object detection
                [20.0, 4.0, 1.5],     # face recognition
                [12.0, 6.0, 25.0],    # speech recognition (ASIC mismatch)
            ]
        ),
        task_types,
        ["ARM", "eGPU", "ASIC"],
    )
    return Scenario(
        eet=eet,
        machine_counts={"ARM": 2, "eGPU": 1, "ASIC": 1},
        scheduler=scheduler,
        queue_capacity=2,
        generator={
            "duration": duration,
            "intensity": intensity,
            "specs": [
                {"name": "object_detection", "share": 1.0, "slack_factor": 3.0},
                {"name": "face_recognition", "share": 1.0, "slack_factor": 3.0},
                {"name": "speech_recognition", "share": 1.0, "slack_factor": 3.0},
            ],
        },
        power_profiles={
            "ARM": PowerProfile(idle_watts=2.0, busy_watts=6.0),
            "eGPU": PowerProfile(idle_watts=10.0, busy_watts=30.0),
            "ASIC": PowerProfile(
                idle_watts=1.0,
                busy_watts=8.0,
                busy_watts_by_type={"face_recognition": 3.0},
            ),
        },
        memory_capacities={"ARM": 2000.0, "eGPU": 4000.0, "ASIC": 1000.0},
        network=(
            {"ARM": (0.05, 100.0), "eGPU": (0.02, 400.0), "ASIC": (0.02, 400.0)}
            if with_network
            else {}
        ),
        enable_network=with_network,
        seed=seed,
        name="edge_ai",
    )


@register_scenario
def classroom_homogeneous(
    *,
    scheduler: str = "FCFS",
    intensity: str | float = "medium",
    duration: float = 600.0,
    seed: int = 2023,
    n_machines: int = 4,
) -> Scenario:
    """Four identical machines, three task types — the assignment's part 1."""
    eet = EETMatrix.homogeneous(
        task_eets=[12.0, 20.0, 30.0],
        task_type_names=["T1", "T2", "T3"],
        n_machine_types=n_machines,
    )
    return Scenario(
        eet=eet,
        machine_counts={n: 1 for n in eet.machine_type_names},
        scheduler=scheduler,
        generator={"duration": duration, "intensity": intensity},
        seed=seed,
        name="classroom_homogeneous",
    )
