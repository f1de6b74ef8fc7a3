"""Simulation clock.

A thin, monotonic wrapper around "current simulation time". Keeping it as an
object (rather than a bare float on the simulator) lets machines, metrics and
renderers share one authoritative time source, mirroring the "Current Time"
display of the E2C GUI.
"""

from __future__ import annotations

from .errors import SimulationStateError

__all__ = ["SimulationClock"]


class SimulationClock:
    """Monotonic simulation clock measured in simulated seconds, from 0."""

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def advance_to(self, time: float) -> float:
        """Move the clock forward to *time* (never backwards).

        Raises
        ------
        SimulationStateError
            If *time* precedes the current time (events must be causal).
        """
        if time < self._now:
            raise SimulationStateError(
                f"clock cannot move backwards: now={self._now}, requested={time}"
            )
        self._now = float(time)
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimulationClock(now={self._now:.6g})"
