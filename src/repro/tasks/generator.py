"""Workload generator — paper feature (i).

Produces a :class:`~repro.tasks.workload.Workload` from per-task-type arrival
specs. Two pieces reproduce the class-assignment methodology of §4:

* **Intensity calibration.** The assignment uses three traces at "low, medium
  and high" arrival intensity to stress the system at different levels. Here,
  intensity is expressed as an *oversubscription ratio* ρ = offered load /
  system capacity. Given the EET matrix and the machine population we compute
  the aggregate service rate μ (tasks/second if machines run a balanced mix)
  and scale arrival rates so that Σλ = ρ·μ. ρ < 1 under-subscribes the system
  (most deadlines met); ρ ≈ 1 saturates it; ρ > 1 oversubscribes it (deadline
  misses become unavoidable) — yielding the monotone completion-rate decline
  the paper expects students to observe.

* **Deadline model.** Each task's deadline is ``arrival + relative deadline``.
  The relative deadline comes either from the task type (fixed) or from the
  EET matrix: ``slack_factor × mean EET of the type across machines`` — the
  standard heterogeneous-computing convention, so tighter machines imply
  tighter deadlines.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping, Sequence

import numpy as np

from ..core.errors import ConfigurationError
from ..core.fields import real, record, text
from ..core.rng import make_rng, spawn
from ..machines.eet import EETMatrix
from .arrivals import ArrivalProcess, PoissonProcess, arrival_process_from_spec
from .workload import Workload

__all__ = [
    "TaskTypeSpec",
    "WorkloadGenerator",
    "INTENSITY_LEVELS",
    "oversubscription_for_level",
]

#: Most tasks a generated workload may hold. A window whose expected count
#: (Σ rate × duration) is larger is refused before any array is sized: a
#: mistyped duration would otherwise ask NumPy for hundreds of GiB.
MAX_EXPECTED_TASKS = 1_000_000

#: Canonical oversubscription ratios for the class-assignment intensity labels.
INTENSITY_LEVELS: dict[str, float] = {"low": 0.5, "medium": 1.0, "high": 2.0}


def oversubscription_for_level(level: str | float) -> float:
    """Map an intensity label (or a raw ratio) to an oversubscription ratio."""
    if isinstance(level, str):
        try:
            return INTENSITY_LEVELS[level.lower()]
        except KeyError:
            raise ConfigurationError(
                f"unknown intensity level {level!r}; "
                f"known: {sorted(INTENSITY_LEVELS)} or a positive float"
            ) from None
    return real(level, "intensity", above=0)


@dataclass
class TaskTypeSpec:
    """Per-task-type generation recipe.

    Attributes
    ----------
    name:
        Task type name (must match an EET row).
    arrival:
        Arrival process, or None to let the generator assign a Poisson process
        whose rate is derived from the intensity calibration (equal share per
        type weighted by ``share``).
    share:
        Relative share of the total arrival volume when ``arrival`` is None.
    slack_factor:
        Relative deadline = slack_factor × (mean EET of this type). Ignored if
        the task type carries a fixed ``relative_deadline``.
    """

    name: str
    arrival: ArrivalProcess | None = None
    share: float = 1.0
    slack_factor: float = 4.0

    def __post_init__(self) -> None:
        path = f"generator spec {text(self.name, 'generator spec name')!r}"
        self.share = real(self.share, f"{path}.share", above=0)
        self.slack_factor = real(self.slack_factor, f"{path}.slack_factor", above=0)

    @classmethod
    def from_dict(cls, spec: Mapping) -> "TaskTypeSpec":
        spec = record(spec, "generator spec", [f.name for f in fields(cls)], ("name",))
        arrival = spec.pop("arrival", None)
        return cls(
            arrival=arrival_process_from_spec(arrival) if arrival else None, **spec
        )


class WorkloadGenerator:
    """Generates workload traces compatible with a given EET matrix."""

    def __init__(
        self,
        eet: EETMatrix,
        specs: Sequence[TaskTypeSpec] | None = None,
        *,
        machine_counts: Sequence[int] | None = None,
    ) -> None:
        """
        Parameters
        ----------
        eet:
            The EET matrix defining the task-type universe.
        specs:
            Per-type recipes; defaults to one equal-share spec per EET row.
        machine_counts:
            Machines per machine type (column multiplicity) for capacity
            calibration; defaults to one machine per EET column.
        """
        self.eet = eet
        if specs is None:
            specs = [TaskTypeSpec(name=n) for n in eet.task_type_names]
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate task type specs: {names}")
        for name in names:
            if not eet.has_task_type(name):
                raise ConfigurationError(
                    f"spec for {name!r} has no EET row; rows: {eet.task_type_names}"
                )
        self.specs = list(specs)
        if machine_counts is None:
            machine_counts = [1] * eet.n_machine_types
        if len(machine_counts) != eet.n_machine_types:
            raise ConfigurationError(
                f"machine_counts must have one entry per EET column "
                f"({len(machine_counts)} vs {eet.n_machine_types})"
            )
        if any(c < 0 for c in machine_counts):
            raise ConfigurationError("machine_counts must be >= 0")
        if sum(machine_counts) == 0:
            raise ConfigurationError("at least one machine is required")
        self.machine_counts = np.asarray(machine_counts, dtype=int)

    # -- capacity calibration ----------------------------------------------------

    def system_service_rate(self) -> float:
        """Aggregate tasks/second the machine population can sustain.

        Each machine type contributes ``count / mean-EET-across-spec-types``;
        the mean uses the shares of the specs, matching the generated mix.
        """
        shares = np.array([s.share for s in self.specs], dtype=float)
        shares = shares / shares.sum()
        rows = [self.eet.row(s.name) for s in self.specs]  # (n_types, n_machine_types)
        mix_eet = np.average(np.vstack(rows), axis=0, weights=shares)
        rates = self.machine_counts / mix_eet
        return float(rates.sum())

    def rates_for_oversubscription(self, ratio: float) -> dict[str, float]:
        """Per-type Poisson rates so that total offered load = ratio × capacity."""
        if ratio <= 0:
            raise ConfigurationError(f"oversubscription must be positive: {ratio}")
        mu = self.system_service_rate()
        shares = np.array([s.share for s in self.specs], dtype=float)
        shares = shares / shares.sum()
        total_lambda = ratio * mu
        return {
            s.name: float(total_lambda * w) for s, w in zip(self.specs, shares)
        }

    # -- deadline model ------------------------------------------------------------

    def relative_deadline(self, spec: TaskTypeSpec) -> float:
        """Relative deadline for tasks of this spec's type."""
        task_type = self.eet.task_type(spec.name)
        if task_type.relative_deadline is not None:
            return task_type.relative_deadline
        return spec.slack_factor * float(self.eet.row(spec.name).mean())

    # -- generation ---------------------------------------------------------------

    def check_window(
        self, duration: float, intensity: str | float
    ) -> tuple[float, dict[str, float]]:
        """The ratio and calibrated rates, once a window of *duration* is known to fit.

        Refuses a duration that is not a positive number, or whose expected
        task count (Σ rate × duration) exceeds ``MAX_EXPECTED_TASKS``, before
        anything is drawn or sized.
        """
        real(duration, "generator.duration", above=0)
        ratio = oversubscription_for_level(intensity)
        rates = self.rates_for_oversubscription(ratio)
        expected = duration * sum(
            rates[s.name] if s.arrival is None else s.arrival.mean_rate() * ratio
            for s in self.specs
        )
        if expected > MAX_EXPECTED_TASKS:
            raise ConfigurationError(
                f"generator.duration {duration} expects about {expected:.3g} "
                f"tasks, more than the {MAX_EXPECTED_TASKS} a workload may hold"
            )
        return ratio, rates

    def count_window(self, n_tasks: int, intensity: str | float) -> float:
        """Seconds the calibrated rates take, on average, to offer *n_tasks*."""
        ratio = oversubscription_for_level(intensity)
        return n_tasks / sum(self.rates_for_oversubscription(ratio).values())

    def generate(
        self,
        duration: float,
        *,
        intensity: str | float = "medium",
        seed: int | None | np.random.Generator = None,
        start: float = 0.0,
    ) -> Workload:
        """Generate a workload over ``[start, start + duration)``.

        ``intensity`` is a label (low/medium/high) or a raw oversubscription
        ratio. Types whose spec carries an explicit arrival process use it
        scaled by the ratio; types without one get a calibrated Poisson rate.
        """
        type_indices, arrivals, deadlines = self._sample(
            duration, intensity, make_rng(seed), start
        )
        return Workload.from_arrays(
            self.eet.task_types, type_indices, arrivals, deadlines
        )

    def _sample(
        self,
        duration: float,
        intensity: str | float,
        rng: np.random.Generator,
        start: float,
    ) -> tuple[list[int], list[float], list[float]]:
        """Draw one window's (type index, arrival, deadline) columns."""
        ratio, calibrated = self.check_window(duration, intensity)
        streams = spawn(rng, len(self.specs))

        type_indices: list[int] = []
        arrivals: list[float] = []
        deadlines: list[float] = []
        for spec, stream in zip(self.specs, streams):
            task_type = self.eet.task_type(spec.name)
            rel_deadline = self.relative_deadline(spec)
            if spec.arrival is not None:
                times = spec.arrival.generate(
                    start, start + duration, rng=stream, intensity=ratio
                )
            else:
                process = PoissonProcess(rate=calibrated[spec.name])
                times = process.generate(
                    start, start + duration, rng=stream, intensity=1.0
                )
            type_indices.extend([task_type.index] * times.size)
            arrivals.extend(times.tolist())
            deadlines.extend((times + rel_deadline).tolist())
        return type_indices, arrivals, deadlines

    def generate_count(
        self,
        n_tasks: int,
        *,
        intensity: str | float = "medium",
        seed: int | None | np.random.Generator = None,
        start: float = 0.0,
    ) -> Workload:
        """Generate (approximately then exactly) *n_tasks* tasks.

        Chooses a window long enough for the calibrated rates, generates, and
        truncates/extends to exactly *n_tasks*, preserving arrival order.
        """
        if n_tasks <= 0:
            raise ConfigurationError(f"n_tasks must be positive, got {n_tasks}")
        duration = max(self.count_window(n_tasks, intensity) * 1.5, 1e-6)
        rng = make_rng(seed)
        type_indices, arrivals, deadlines = self._sample(
            duration, intensity, rng, start
        )
        attempts = 0
        while len(arrivals) < n_tasks and attempts < 16:
            duration *= 1.6
            type_indices, arrivals, deadlines = self._sample(
                duration, intensity, rng, start
            )
            attempts += 1
        if len(arrivals) < n_tasks:
            raise ConfigurationError(
                f"could not generate {n_tasks} tasks (got {len(arrivals)}); "
                "arrival rates may be degenerate"
            )
        # The first n_tasks in arrival order, each built once.
        times = np.asarray(arrivals)
        kept = np.argsort(times, kind="stable")[:n_tasks]
        return Workload.from_arrays(
            self.eet.task_types,
            np.asarray(type_indices)[kept].tolist(),
            times[kept].tolist(),
            np.asarray(deadlines)[kept].tolist(),
        )
