"""Interactive simulation controller — the GUI control bar, headless.

The E2C GUI exposes Play (run / pause toggle), an Increment button ("perform
the next individual step"), Reset ("begin a new simulation, also allowing you
to load a new EET and/or workload"), and a speed dial (§3). This controller
provides exactly those semantics over any :class:`~repro.core.simulator.Simulator`:

* :meth:`play` — advance continuously; with a positive ``speed`` the
  controller sleeps so one simulated second takes ``1/speed`` wall seconds
  (the speed dial); with ``speed=0`` it free-runs.
* :meth:`pause` / the ``paused`` flag — cooperative: ``play`` returns at the
  next event boundary.
* :meth:`increment` — one event (the Increment button).
* :meth:`reset` — build a fresh simulator from the factory, optionally with a
  new workload, mirroring the Reset button's "load a new EET and/or workload".

A ``frame_callback(simulator, event)`` hook fires after every processed event;
the ASCII animation (:mod:`repro.viz.animation`) plugs in there.
"""

from __future__ import annotations

import time as _time
from typing import Callable

from .errors import ConfigurationError
from .events import Event
from .simulator import Simulator

__all__ = ["SimulationController"]

FrameCallback = Callable[[Simulator, Event], None]


class SimulationController:
    """Play/pause/step/reset façade over a rebuildable simulator."""

    def __init__(
        self,
        factory: Callable[[], Simulator],
        *,
        speed: float = 0.0,
        frame_callback: FrameCallback | None = None,
        sleeper: Callable[[float], None] = _time.sleep,
    ) -> None:
        """
        Parameters
        ----------
        factory:
            Zero-argument callable returning a *fresh* simulator; called at
            construction and by :meth:`reset`.
        speed:
            Simulated seconds per wall second; 0 disables pacing entirely.
        frame_callback:
            Invoked after each processed event (animation hook).
        sleeper:
            Injection point for tests (defaults to ``time.sleep``).
        """
        if speed < 0:
            raise ConfigurationError(f"speed must be >= 0, got {speed}")
        self._factory = factory
        self.speed = speed
        self.frame_callback = frame_callback
        self._sleep = sleeper
        self.paused = False
        self.simulator = factory()

    # -- control buttons -----------------------------------------------------------

    def increment(self) -> Event | None:
        """Process one event (the Increment button); None when finished."""
        event = self.simulator.step()
        if event is not None and self.frame_callback is not None:
            self.frame_callback(self.simulator, event)
        return event

    def play(self, *, max_events: int | None = None) -> bool:
        """Run until finished, paused, or *max_events* processed.

        Returns True if the simulation finished. Pressing "Play" during a run
        corresponds to setting :attr:`paused` (e.g. from the frame callback)
        — the loop stops at the next event boundary.
        """
        self.paused = False
        processed = 0
        while not self.simulator.is_finished and not self.paused:
            if max_events is not None and processed >= max_events:
                break
            before = self.simulator.now
            event = self.increment()
            if event is None:
                break
            processed += 1
            if self.speed > 0:
                sim_dt = event[0] - before
                if sim_dt > 0:
                    self._sleep(sim_dt / self.speed)
        return self.simulator.is_finished

    def pause(self) -> None:
        """Request the current :meth:`play` loop to stop (cooperative)."""
        self.paused = True

    def set_speed(self, speed: float) -> None:
        """The speed dial: simulated seconds per wall second (0 = free run)."""
        if speed < 0:
            raise ConfigurationError(f"speed must be >= 0, got {speed}")
        self.speed = speed

    def reset(
        self, factory: Callable[[], Simulator] | None = None
    ) -> Simulator:
        """Discard the current run and build a fresh simulator.

        Passing a new *factory* mirrors loading a new EET/workload from the
        Reset dialog; otherwise the original scenario replays (identical
        seed ⇒ identical trace).
        """
        if factory is not None:
            self._factory = factory
        self.paused = False
        self.simulator = self._factory()
        return self.simulator

    @property
    def now(self) -> float:
        return self.simulator.now

    @property
    def is_finished(self) -> bool:
        return self.simulator.is_finished
