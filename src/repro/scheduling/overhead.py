"""Scheduling-overhead model.

§3: "Typically, immediate mode scheduling methods impose a lower overhead and
generally load balancers use this type of scheduling." This model makes that
statement measurable: every scheduling pass may cost simulated time —

    delay(pass) = per_pass + per_cell × |pending| × |machines|

— charged to the tasks mapped in that pass (they reach their machine queues
only after the decision latency, via the same delayed-delivery machinery the
network extension uses). Immediate passes see one pending task, so their cost
is ~per_pass; batch passes examine the whole completion-time matrix, so their
cost grows with the backlog — exactly the trade-off the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import ConfigurationError
from ..core.fields import real, record

__all__ = ["SchedulingOverhead"]


@dataclass(frozen=True)
class SchedulingOverhead:
    """Decision-latency parameters (simulated seconds).

    Attributes
    ----------
    per_pass:
        Fixed cost of invoking the scheduler once.
    per_cell:
        Cost per (pending task × machine) cell the mapping pass examines.
    """

    per_pass: float = 0.0
    per_cell: float = 0.0

    def __post_init__(self) -> None:
        real(self.per_pass, "scheduling_overhead.per_pass", lo=0)
        real(self.per_cell, "scheduling_overhead.per_cell", lo=0)

    @property
    def is_free(self) -> bool:
        return self.per_pass == 0.0 and self.per_cell == 0.0

    def pass_delay(self, n_pending: int, n_machines: int) -> float:
        """Decision latency of one scheduling pass."""
        if n_pending < 0 or n_machines < 0:
            raise ConfigurationError("counts must be >= 0")
        return self.per_pass + self.per_cell * n_pending * n_machines

    def spec(self) -> dict:
        return {"per_pass": self.per_pass, "per_cell": self.per_cell}

    @classmethod
    def from_spec(cls, spec: dict | None) -> "SchedulingOverhead":
        if spec is None:
            return cls()
        return cls(**record(spec, "scheduling_overhead", ("per_pass", "per_cell")))
