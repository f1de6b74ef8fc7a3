"""Machine failure injection (robustness extension).

Heterogeneous systems research on robustness (the authors' own refs [8],
[10], [14] study robustness of heterogeneous systems) needs fault injection:
machines crash and recover, and the scheduler must absorb it. The model:

* each machine alternates UP and DOWN phases; UP durations are exponential
  with mean ``mtbf`` (mean time between failures), DOWN durations exponential
  with mean ``mttr`` (mean time to repair), optionally overridden per machine
  type;
* when a machine fails, its running task and queued tasks are **requeued**
  into the batch queue (retry counters incremented) — they compete again at
  the next scheduling pass; deadlines keep ticking, so a crash near a
  deadline still costs the task its life via the normal cancel path;
* a failed machine draws no power; downtime is metered separately from idle
  and busy time, so utilisation and availability
  (``EnergyMeter.availability``) stay separable.

Expected steady-state availability is mtbf / (mtbf + mttr).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from ..core.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine

__all__ = ["FailureModel"]

#: Most fail and repair events a failure model may expect over a workload
#: window (two per up/down cycle, summed over machines). The run processes
#: every one of them, so a tiny ``mtbf + mttr`` keeps it busy for hours while
#: its clock barely moves.
MAX_EXPECTED_FAILURE_EVENTS = 1_000_000


@dataclass(frozen=True)
class FailureModel:
    """Exponential failure/repair process parameters.

    Attributes
    ----------
    mtbf:
        Mean UP duration (seconds) before a failure.
    mttr:
        Mean DOWN duration (seconds) until repair.
    per_machine_type:
        Optional ``{machine_type_name: (mtbf, mttr)}`` overrides.
    """

    mtbf: float
    mttr: float
    per_machine_type: Mapping[str, tuple[float, float]] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        if self.mtbf <= 0 or self.mttr <= 0:
            raise ConfigurationError(
                f"mtbf and mttr must be positive (got {self.mtbf}, {self.mttr})"
            )
        for name, (up, down) in self.per_machine_type.items():
            if up <= 0 or down <= 0:
                raise ConfigurationError(
                    f"override for {name!r}: mtbf/mttr must be positive"
                )

    def check_window(
        self, machine_counts: Mapping[str, int], duration: float
    ) -> float:
        """Expected fail and repair events over *duration*, once known to fit.

        The estimate is 2 × Σ machines × duration / (mtbf + mttr), with the
        per-type overrides; above ``MAX_EXPECTED_FAILURE_EVENTS`` it is
        refused before the run starts.
        """
        cycles_per_s = sum(
            count / sum(self.per_machine_type.get(name, (self.mtbf, self.mttr)))
            for name, count in machine_counts.items()
        )
        expected = 2.0 * duration * cycles_per_s
        if expected > MAX_EXPECTED_FAILURE_EVENTS:
            raise ConfigurationError(
                f"failure_model expects about {expected:.3g} fail and repair "
                f"events over a {duration:.3g} s workload window, more than the "
                f"{MAX_EXPECTED_FAILURE_EVENTS} a run may hold"
            )
        return expected

    def parameters_for(self, machine: "Machine") -> tuple[float, float]:
        """(mtbf, mttr) effective for *machine*."""
        return self.per_machine_type.get(
            machine.machine_type.name, (self.mtbf, self.mttr)
        )

    def sample_uptime(
        self, machine: "Machine", rng: np.random.Generator
    ) -> float:
        """Draw the next UP duration for *machine*."""
        mtbf, _ = self.parameters_for(machine)
        return float(rng.exponential(mtbf))

    def sample_downtime(
        self, machine: "Machine", rng: np.random.Generator
    ) -> float:
        """Draw the next DOWN duration for *machine*."""
        _, mttr = self.parameters_for(machine)
        return float(rng.exponential(mttr))
