"""Power profiles and energy metering.

E2C "measures energy consumption and other output-related metrics" (§1). The
model: each machine type carries a power profile with an idle draw and a busy
draw (optionally overridden per task type — a TPU burns different watts on
object detection than on noise removal). Energy is integrated exactly from the
piecewise-constant power signal:

    E = idle_watts × idle_time + Σ_tasks busy_watts(type) × runtime .

:class:`EnergyMeter` is the per-machine accumulator the simulator drives; it
also attributes per-task energy for the Task/Full reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..core.errors import ConfigurationError

__all__ = ["PowerProfile", "EnergyMeter"]


@dataclass(frozen=True)
class PowerProfile:
    """Electrical behaviour of a machine type.

    Attributes
    ----------
    idle_watts:
        Draw while powered on but not executing.
    busy_watts:
        Default draw while executing any task.
    busy_watts_by_type:
        Optional per-task-type overrides of ``busy_watts``.
    """

    idle_watts: float = 0.0
    busy_watts: float = 0.0
    busy_watts_by_type: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.idle_watts < 0:
            raise ConfigurationError(f"idle_watts must be >= 0: {self.idle_watts}")
        if self.busy_watts < 0:
            raise ConfigurationError(f"busy_watts must be >= 0: {self.busy_watts}")
        for name, watts in self.busy_watts_by_type.items():
            if watts < 0:
                raise ConfigurationError(
                    f"busy watts for task type {name!r} must be >= 0: {watts}"
                )

    def active_watts(self, task_type_name: str | None = None) -> float:
        """Busy draw while running a task of the given type."""
        if task_type_name is not None:
            return self.busy_watts_by_type.get(task_type_name, self.busy_watts)
        return self.busy_watts

    def energy_for(self, task_type_name: str, runtime: float) -> float:
        """Dynamic (busy − idle) plus idle energy for executing one task.

        This is the full electrical energy drawn during the task's runtime,
        i.e. what you save by *not* running it on this machine only if you
        could power the machine off; reports expose both this and the dynamic
        part where relevant.
        """
        if runtime < 0:
            raise ConfigurationError(f"runtime must be >= 0: {runtime}")
        return self.active_watts(task_type_name) * runtime


class EnergyMeter:
    """Per-machine exact energy integrator over a piecewise-constant signal.

    The simulator calls :meth:`advance` whenever the machine's power state is
    about to change (task start, task end, drop), passing the current time and
    the state that held *since the previous call*.
    """

    def __init__(self, profile: PowerProfile, start_time: float = 0.0) -> None:
        self.profile = profile
        self._last_time = start_time
        self._idle_time = 0.0
        self._busy_time = 0.0
        self._off_time = 0.0
        self._idle_energy = 0.0
        self._busy_energy = 0.0

    def advance(
        self, now: float, *, busy: bool, task_type_name: str | None = None
    ) -> float:
        """Integrate the interval [last, now] in the given state.

        Returns the energy (J) consumed over the interval.
        """
        dt = now - self._last_time
        if dt < 0:
            raise ConfigurationError(
                f"energy meter cannot integrate backwards ({self._last_time} -> {now})"
            )
        self._last_time = now
        if busy:
            watts = self.profile.active_watts(task_type_name)
            self._busy_time += dt
            energy = watts * dt
            self._busy_energy += energy
        else:
            self._idle_time += dt
            energy = self.profile.idle_watts * dt
            self._idle_energy += energy
        return energy

    def advance_off(self, now: float) -> float:
        """Integrate the interval [last, now] with the machine powered off.

        Used by the failure-injection extension: a failed machine draws no
        power and its downtime is accounted separately from idle time.
        Always returns 0.0 J.
        """
        dt = now - self._last_time
        if dt < 0:
            raise ConfigurationError(
                f"energy meter cannot integrate backwards ({self._last_time} -> {now})"
            )
        self._last_time = now
        self._off_time += dt
        return 0.0

    @property
    def idle_time(self) -> float:
        return self._idle_time

    @property
    def busy_time(self) -> float:
        return self._busy_time

    @property
    def idle_energy(self) -> float:
        """Joules consumed while idle."""
        return self._idle_energy

    @property
    def busy_energy(self) -> float:
        """Joules consumed while executing."""
        return self._busy_energy

    @property
    def total_energy(self) -> float:
        return self._idle_energy + self._busy_energy

    def utilization(self) -> float:
        """Fraction of metered wall time spent busy (0 when nothing metered)."""
        total = self._idle_time + self._busy_time + self._off_time
        return self._busy_time / total if total > 0 else 0.0

    def availability(self) -> float:
        """Fraction of metered wall time the machine was powered on."""
        total = self._idle_time + self._busy_time + self._off_time
        if total <= 0:
            return 1.0
        return (self._idle_time + self._busy_time) / total
