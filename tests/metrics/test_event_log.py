"""Event trace log."""

import io

import pytest

from repro.metrics.event_log import EventLog
from repro.scenarios import build_scenario


@pytest.fixture
def logged_run(scenario_factory):
    log = EventLog()
    scenario = scenario_factory("MECT")
    sim = scenario.build_simulator()
    sim.observers.append(log)
    sim.run()
    return log, sim


class TestCollection:
    def test_one_record_per_event(self, logged_run):
        log, sim = logged_run
        assert len(log) == sim.events_processed

    def test_records_monotone_in_time(self, logged_run):
        log, _ = logged_run
        times = [r.time for r in log.records]
        assert times == sorted(times)

    def test_arrival_records_carry_task(self, logged_run):
        log, _ = logged_run
        arrivals = [r for r in log.records if r.event_type == "task_arrival"]
        assert arrivals
        assert all(r.task_id is not None for r in arrivals)
        assert all(r.task_type for r in arrivals)

    def test_completion_records_carry_machine(self, logged_run):
        log, _ = logged_run
        completions = [
            r for r in log.records if r.event_type == "task_completion"
        ]
        assert completions
        assert all(r.machine for r in completions)

    def test_counters_monotone(self, logged_run):
        log, _ = logged_run
        done = [r.completed for r in log.records]
        assert done == sorted(done)

    def test_for_task_life_story(self, logged_run):
        log, sim = logged_run
        task = sim.workload[0]
        story = [r for r in log.records if r.task_id == task.id]
        kinds = [r.event_type for r in story]
        assert kinds[0] == "task_arrival"
        assert "task_completion" in kinds or "task_deadline" in kinds

    def test_peak_backlog_nonnegative(self, logged_run):
        log, _ = logged_run
        assert min(r.batch_queue_length for r in log.records) >= 0

    def test_max_records_guard(self, scenario_factory):
        log = EventLog(max_records=5)
        sim = scenario_factory("MECT").build_simulator()
        sim.observers.append(log)
        sim.run()
        assert len(log) == 5


class TestExport:
    def test_csv_row_count(self, logged_run):
        log, _ = logged_run
        text = log.to_csv()
        assert len(text.splitlines()) == len(log) + 1

    def test_csv_to_stream(self, logged_run):
        log, _ = logged_run
        buf = io.StringIO()
        log.to_csv(buf)
        assert buf.getvalue().startswith("seq,time,event_type")

    def test_csv_to_path(self, logged_run, tmp_path):
        log, _ = logged_run
        path = tmp_path / "trace.csv"
        log.to_csv(path)
        assert path.exists()

    def test_to_text_truncates(self, logged_run):
        log, _ = logged_run
        text = log.to_text(limit=3)
        assert "more)" in text


class TestFailureEvents:
    def test_failure_and_repair_logged(self, eet_3x2, make_workload):
        from repro.core.simulator import Simulator
        from repro.machines.cluster import Cluster
        from repro.machines.failures import FailureModel
        from repro.scheduling.registry import create_scheduler

        log = EventLog()
        sim = Simulator(
            cluster=Cluster.build(eet_3x2, {"M1": 1, "M2": 1}),
            workload=make_workload(
                [(0, float(i), 1e9) for i in range(20)]
            ),
            scheduler=create_scheduler("MECT"),
            failure_model=FailureModel(mtbf=5.0, mttr=2.0),
            seed=3,
            observers=[log],
        )
        sim.run()
        failures = [r for r in log.records if r.event_type == "machine_failure"]
        repairs = [r for r in log.records if r.event_type == "machine_repair"]
        assert failures and repairs
        assert all(r.machine for r in failures)


class TestFederatedEngine:
    @pytest.mark.parametrize("preset", ["geo_3site", "hier_3region"])
    def test_logs_every_event_without_changing_the_run(self, preset):
        scenario = build_scenario(preset)
        plain = scenario.run()
        log = EventLog()
        sim = scenario.build_simulator()
        sim.observers.append(log)
        logged = sim.run()
        assert len(log) == logged.events_processed
        assert logged.summary == plain.summary

    def test_backlog_sums_over_shards(self):
        log = EventLog()
        sim = build_scenario("fed_rebalance").build_simulator()
        sim.observers.append(log)
        sim.run()
        assert max(r.batch_queue_length for r in log.records) > 0
        migrations = [
            r for r in log.records if r.event_type == "task_migration"
        ]
        assert any(r.task_id is not None for r in migrations)
