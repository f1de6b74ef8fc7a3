"""Simulation clock: starts at zero and only moves forward."""

import pytest

from repro.core.clock import SimulationClock
from repro.core.errors import SimulationStateError


class TestClock:
    def test_starts_at_zero_by_default(self):
        assert SimulationClock().now == 0.0

    def test_advance(self):
        clock = SimulationClock()
        clock.advance_to(3.5)
        assert clock.now == 3.5

    def test_advance_to_same_time_allowed(self):
        clock = SimulationClock()
        clock.advance_to(2.0)
        clock.advance_to(2.0)
        assert clock.now == 2.0

    def test_backwards_advance_rejected(self):
        clock = SimulationClock()
        clock.advance_to(4.0)
        with pytest.raises(SimulationStateError):
            clock.advance_to(3.0)
