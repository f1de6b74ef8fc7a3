"""System renderer: the Fig-1 frame and the missed-tasks component."""

import pytest

from repro.viz.renderer import SystemRenderer


@pytest.fixture
def simulator(scenario_factory):
    return scenario_factory("MECT").build_simulator()


class TestFrame:
    def test_frame_shows_policy_and_time(self, simulator):
        text = SystemRenderer().render(simulator)
        assert "MECT" in text
        assert "current time" in text

    def test_frame_lists_machines(self, simulator):
        text = SystemRenderer().render(simulator)
        assert "M1-0" in text and "M2-1" in text

    def test_frame_counters(self, simulator):
        text = SystemRenderer().render(simulator)
        assert "completed: 0" in text
        assert "cancelled: 0" in text
        assert "missed: 0" in text

    def test_frame_updates_after_events(self, simulator):
        renderer = SystemRenderer()
        simulator.run()
        text = renderer.render(simulator)
        assert "simulation finished" in text
        counts = simulator.counts()
        assert f"completed: {counts['completed']}" in text

    def test_running_task_marker(self, simulator):
        # advance until something is running
        renderer = SystemRenderer()
        while simulator.step() is not None:
            if any(not m.is_idle for m in simulator.cluster):
                break
        assert "▶" in renderer.render(simulator)

    def test_queue_overflow_ellipsis(self, scenario_factory):
        scenario = scenario_factory(
            "MEET", generator={"duration": 300.0, "intensity": 4.0}
        )
        sim = scenario.build_simulator()
        renderer = SystemRenderer(max_queue_display=2)
        for _ in range(200):
            if sim.step() is None:
                break
        text = renderer.render(sim)
        assert "…+" in text  # MEET piles tasks on one machine

    def test_colour_mode_emits_ansi(self, simulator):
        renderer = SystemRenderer(colour=True)
        while simulator.step() is not None:
            if any(not m.is_idle for m in simulator.cluster):
                break
        assert "\x1b[" in renderer.render(simulator)


class TestMissedTasksComponent:
    def test_empty_when_no_misses(self, simulator):
        simulator.run()
        text = SystemRenderer().render_missed_tasks(simulator)
        if simulator.counts()["missed"] == 0:
            assert "(no missed tasks)" in text

    def test_rows_for_missed(self, scenario_factory):
        sim = scenario_factory(
            "MEET", generator={"duration": 300.0, "intensity": 4.0}
        ).build_simulator()
        sim.run()
        assert sim.counts()["missed"] > 0
        text = SystemRenderer().render_missed_tasks(sim)
        assert "Missed Tasks" in text
        assert "machine_queue" in text or "executing" in text
