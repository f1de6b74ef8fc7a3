"""Interactive controller: Play/Pause/Increment/Reset/speed semantics."""

import pytest

from repro.core.controller import SimulationController
from repro.core.errors import ConfigurationError


@pytest.fixture
def factory(scenario_factory):
    scenario = scenario_factory("MECT")
    return scenario.build_simulator


class TestIncrement:
    def test_increment_is_one_event(self, factory):
        controller = SimulationController(factory)
        controller.increment()
        assert controller.simulator.events_processed == 1

    def test_increment_fires_frame_callback(self, factory):
        frames = []
        controller = SimulationController(
            factory, frame_callback=lambda sim, e: frames.append(e)
        )
        controller.increment()
        assert len(frames) == 1

    def test_increment_after_finish_returns_none(self, factory):
        controller = SimulationController(factory)
        controller.play()
        assert controller.increment() is None


class TestPlay:
    def test_play_runs_to_completion(self, factory):
        controller = SimulationController(factory)
        assert controller.play() is True
        assert controller.is_finished

    def test_play_respects_max_events(self, factory):
        controller = SimulationController(factory)
        controller.play(max_events=5)
        assert controller.simulator.events_processed == 5
        assert not controller.is_finished

    def test_pause_from_callback_stops_loop(self, factory):
        controller = SimulationController(factory)

        def pause_after_three(sim, event):
            if sim.events_processed >= 3:
                controller.pause()

        controller.frame_callback = pause_after_three
        finished = controller.play()
        assert not finished
        assert controller.simulator.events_processed == 3

    def test_play_resumes_after_pause(self, factory):
        controller = SimulationController(factory)
        controller.play(max_events=4)
        assert controller.play() is True  # resume to the end

    def test_step_equivalence(self, factory):
        """N increments == one play: identical result records."""
        a = SimulationController(factory)
        while a.increment() is not None:
            pass
        b = SimulationController(factory)
        b.play()
        assert (
            a.simulator.result().task_records
            == b.simulator.result().task_records
        )


class TestSpeed:
    def test_speed_dial_sleeps_scaled_sim_time(self, factory):
        sleeps = []
        controller = SimulationController(
            factory, speed=2.0, sleeper=sleeps.append
        )
        controller.play(max_events=20)
        sim_dt_total = sum(s * 2.0 for s in sleeps)
        assert sim_dt_total == pytest.approx(controller.now, rel=1e-6)

    def test_zero_speed_never_sleeps(self, factory):
        sleeps = []
        controller = SimulationController(
            factory, speed=0.0, sleeper=sleeps.append
        )
        controller.play()
        assert sleeps == []

    def test_negative_speed_rejected(self, factory):
        with pytest.raises(ConfigurationError):
            SimulationController(factory, speed=-1.0)
        controller = SimulationController(factory)
        with pytest.raises(ConfigurationError):
            controller.set_speed(-2.0)

    def test_set_speed(self, factory):
        controller = SimulationController(factory)
        controller.set_speed(5.0)
        assert controller.speed == 5.0


class TestReset:
    def test_reset_discards_progress(self, factory):
        controller = SimulationController(factory)
        controller.play(max_events=10)
        controller.reset()
        assert controller.simulator.events_processed == 0
        assert controller.now == 0.0

    def test_reset_replays_identically(self, factory):
        controller = SimulationController(factory)
        controller.play()
        first = controller.simulator.result().task_records
        controller.reset()
        controller.play()
        second = controller.simulator.result().task_records
        assert first == second

    def test_reset_with_new_factory(self, factory, scenario_factory):
        controller = SimulationController(factory)
        controller.play()
        other = scenario_factory("FCFS")
        controller.reset(other.build_simulator)
        controller.play()
        assert controller.simulator.scheduler.name == "FCFS"

    def test_reset_clears_pause(self, factory):
        controller = SimulationController(factory)
        controller.pause()
        controller.reset()
        assert controller.paused is False

