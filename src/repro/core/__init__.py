"""Discrete-event simulation kernel and engine."""

from .config import Scenario
from .controller import SimulationController
from .errors import (
    ConfigurationError,
    E2CError,
    EETError,
    IncompatibleWorkloadError,
    ReportError,
    SchedulingError,
    SimulationStateError,
    UnknownScenarioError,
    UnknownSchedulerError,
    WorkloadError,
)
from .event_queue import EventQueue
from .events import Event, EventType
from .rng import derive_seed, make_rng, spawn
from .simulator import SimulationResult, Simulator

__all__ = [
    "EventQueue",
    "Event",
    "EventType",
    "Simulator",
    "SimulationResult",
    "SimulationController",
    "Scenario",
    "make_rng",
    "spawn",
    "derive_seed",
    "E2CError",
    "ConfigurationError",
    "WorkloadError",
    "EETError",
    "IncompatibleWorkloadError",
    "SchedulingError",
    "UnknownSchedulerError",
    "UnknownScenarioError",
    "SimulationStateError",
    "ReportError",
]
