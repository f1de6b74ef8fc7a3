"""Machines, machine types, EET matrices, power and execution models."""

from .cluster import Cluster
from .eet import EETMatrix
from .eet_generation import (
    generate_eet_cvb,
    generate_eet_range_based,
    make_consistency,
)
from .execution import (
    DeterministicExecution,
    ExecutionTimeModel,
    GammaExecution,
    LognormalExecution,
    execution_model_from_spec,
)
from .failures import FailureModel
from .machine import UNBOUNDED, Machine
from .machine_type import MachineType
from .power import EnergyMeter, PowerProfile

__all__ = [
    "EETMatrix",
    "generate_eet_range_based",
    "generate_eet_cvb",
    "make_consistency",
    "Machine",
    "MachineType",
    "UNBOUNDED",
    "Cluster",
    "PowerProfile",
    "EnergyMeter",
    "ExecutionTimeModel",
    "DeterministicExecution",
    "LognormalExecution",
    "GammaExecution",
    "execution_model_from_spec",
    "FailureModel",
]
