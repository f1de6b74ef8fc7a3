"""Mid-queue migration: eviction policies, conservation, shared WAN pipes.

The deterministic fixture below is built so each in-WAN cancellation phase
(queued-for-link, serialising, propagating) is hit by exactly one migrated
task, which makes the link's energy accounting assert the *phase* each task
died in — queued pays nothing, serving pays the crossed fraction,
propagating pays the full payload.
"""

import numpy as np
import pytest

from repro.core.config import Scenario
from repro.core.errors import (
    ConfigurationError,
    UnknownEvictionPolicyError,
)
from repro.core.events import EventType
from repro.federation import ClusterSpec, FederationSpec, MigrationSpec
from repro.machines.eet import EETMatrix
from repro.net import InterClusterTopology, WanManager
from repro.net.wan import TransferPhase
from repro.core.event_queue import EventQueue
from repro.scenarios import build_scenario
from repro.scheduling.federation import (
    DeadlineSlackEviction,
    EETGainEviction,
    LongestWaitEviction,
    MigrationContext,
    available_evictions,
    create_eviction,
    eviction_class,
)
from repro.tasks.task import Task
from repro.tasks.task_type import TaskType
from repro.tasks.workload import Workload


# -- MigrationSpec surface ---------------------------------------------------------------


class TestMigrationSpec:
    def test_defaults_round_trip(self):
        spec = MigrationSpec()
        assert MigrationSpec.from_dict(spec.to_dict()) == spec

    def test_rich_spec_round_trips(self):
        spec = MigrationSpec(
            policy="DEADLINE_SLACK",
            policy_params={"margin": 2.0},
            interval=5.0,
            pressure_gap=0.25,
            batch_max=6,
            min_queue=3,
        )
        assert MigrationSpec.from_dict(spec.to_dict()) == spec

    def test_watermark_spec_round_trips(self):
        spec = MigrationSpec(
            policy="LONGEST_WAIT",
            interval=3.0,
            high_watermark=2.5,
            low_watermark=1.0,
        )
        data = spec.to_dict()
        assert data["high_watermark"] == 2.5
        assert data["low_watermark"] == 1.0
        assert MigrationSpec.from_dict(data) == spec
        # Watermark-free specs keep their legacy wire form: no new keys.
        plain = MigrationSpec().to_dict()
        assert "high_watermark" not in plain
        assert "low_watermark" not in plain

    def test_scenario_json_round_trip_preserves_watermarks(self):
        scenario = build_scenario("fed_adaptive")
        rebuilt = Scenario.from_json(scenario.to_json())
        assert rebuilt.federation.migration == scenario.federation.migration
        assert rebuilt.federation.migration.high_watermark == 2.5
        assert rebuilt.federation.migration.low_watermark == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"interval": 0.0},
            {"interval": -1.0},
            {"pressure_gap": -0.1},
            {"batch_max": 0},
            {"min_queue": 0},
            {"policy": ""},
            {"high_watermark": 2.0},  # both-or-neither
            {"low_watermark": 1.0},
            {"high_watermark": 1.0, "low_watermark": 2.0},  # high < low
            {"high_watermark": 1.0, "low_watermark": -0.5},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            MigrationSpec(**kwargs)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="intervall"):
            MigrationSpec.from_dict({"policy": "LONGEST_WAIT", "intervall": 3})

    def test_federation_spec_carries_migration(self):
        federation = FederationSpec(
            clusters=[
                ClusterSpec("a", {"m": 1}),
                ClusterSpec("b", {"m": 1}),
            ],
            migration=MigrationSpec(policy="EET_GAIN", interval=7.0),
        )
        rebuilt = FederationSpec.from_dict(federation.to_dict())
        assert rebuilt.migration == federation.migration
        # And omitting it stays omitted (legacy specs load unchanged).
        plain = FederationSpec(clusters=[ClusterSpec("a", {"m": 1})])
        assert "migration" not in plain.to_dict()
        assert FederationSpec.from_dict(plain.to_dict()).migration is None

    def test_scenario_json_round_trip_preserves_migration(self):
        scenario = build_scenario("fed_rebalance")
        rebuilt = Scenario.from_json(scenario.to_json())
        assert rebuilt.federation.migration == scenario.federation.migration

    def test_with_migration_requires_federation(self):
        scenario = build_scenario("satellite_imaging")
        with pytest.raises(ConfigurationError):
            scenario.with_migration("LONGEST_WAIT")

    def test_with_migration_off_and_on(self):
        scenario = build_scenario("fed_rebalance")
        off = scenario.with_migration(None)
        assert off.federation.migration is None
        on = off.with_migration("DEADLINE_SLACK", interval=4.0)
        assert on.federation.migration.policy == "DEADLINE_SLACK"
        assert on.federation.migration.interval == 4.0
        # Original untouched.
        assert scenario.federation.migration.policy == "LONGEST_WAIT"
        with pytest.raises(ConfigurationError):
            scenario.with_migration(None, interval=3.0)


# -- eviction policy registry + unit behaviour ------------------------------------------


class _StubCluster:
    def __init__(self, completion):
        self._completion = completion

    def completion_times(self, task, now):
        return np.asarray([self._completion])


class _StubShard:
    def __init__(self, index, name, completion=10.0):
        self.index = index
        self.name = name
        self.weight = 1.0
        self.cluster = _StubCluster(completion)
        self.in_system = 0


def _topology():
    topology = InterClusterTopology()
    topology.set_link("src", "dst", latency=1.0, bandwidth=1.0)
    return topology


def _context(candidates, *, limit=8, src_completion=50.0, dst_completion=1.0):
    return MigrationContext(
        now=10.0,
        source=_StubShard(0, "src", src_completion),
        destination=_StubShard(1, "dst", dst_completion),
        candidates=candidates,
        limit=limit,
        wan=WanManager(_topology(), EventQueue(), ["src", "dst"]),
    )


@pytest.mark.parametrize("mb", [0.0, 4.0, 32.0])
def test_migration_estimate_is_the_static_delay(mb):
    """On an uncontended link the live WAN estimate is the topology delay."""
    ctx = _context([])
    task = _task(0, mb=mb)
    static = _topology().wan_delay("src", "dst", mb)
    assert ctx.estimated_wan_delay(task) == static == 1.0 + mb
    assert ctx.destination_completion(task) == static + 1.0


def _task(task_id, *, arrival=0.0, deadline=1000.0, mb=4.0):
    return Task(
        id=task_id,
        task_type=TaskType("T", 0, data_in=mb),
        arrival_time=arrival,
        deadline=deadline,
    )


class TestEvictionRegistry:
    def test_stock_policies_registered(self):
        names = available_evictions()
        for name in ("LONGEST_WAIT", "DEADLINE_SLACK", "EET_GAIN"):
            assert name in names

    def test_aliases_and_case_folding(self):
        assert eviction_class("longest-wait") is LongestWaitEviction
        assert eviction_class("slack") is DeadlineSlackEviction
        assert eviction_class("gain") is EETGainEviction

    def test_unknown_policy_raises(self):
        with pytest.raises(UnknownEvictionPolicyError):
            create_eviction("SHORTEST_JOB_NEXT")

    def test_bad_parameters_raise(self):
        with pytest.raises(ConfigurationError):
            create_eviction("DEADLINE_SLACK", margin=0.5)
        with pytest.raises(ConfigurationError):
            create_eviction("EET_GAIN", min_gain=-1.0)


class TestEvictionPolicies:
    def test_longest_wait_orders_by_queue_age(self):
        tasks = [
            _task(0, arrival=5.0),
            _task(1, arrival=1.0),
            _task(2, arrival=3.0),
        ]
        ctx = _context(tasks, limit=2)
        selected = LongestWaitEviction().select(ctx)
        assert [t.id for t in selected] == [1, 2]

    def test_deadline_slack_skips_tasks_that_die_in_flight(self):
        # WAN delay is latency + mb/bw = 1 + 4/1 = 5 s; margin 1.5 ⇒ a task
        # needs ≥ 7.5 s of slack at now=10 to be worth shipping.
        doomed = _task(0, deadline=14.0)    # 4 s slack: would die in flight
        viable = _task(1, deadline=30.0)    # 20 s slack
        richer = _task(2, deadline=60.0)    # 50 s slack: most slack first
        ctx = _context([doomed, viable, richer])
        selected = DeadlineSlackEviction().select(ctx)
        assert [t.id for t in selected] == [2, 1]

    def test_eet_gain_requires_positive_gain(self):
        # Source completion 50, destination 1 + WAN 5 ⇒ gain 44 (ship it);
        # with a slow destination the gain goes negative (keep it).
        win = _context([_task(0)])
        assert [t.id for t in EETGainEviction().select(win)] == [0]
        lose = _context([_task(0)], src_completion=2.0, dst_completion=100.0)
        assert EETGainEviction().select(lose) == []
        bar = EETGainEviction(min_gain=100.0)
        assert bar.select(win) == []


# -- deterministic per-phase cancellation fixture ---------------------------------------


def _phase_scenario():
    """2 clusters, 1 machine each; 5 tasks; 3 migrations die in the WAN.

    access_cpu takes 100 s per task (nothing drains locally), relief_cpu
    takes 1 s. The FIFO uplink moves 1 MB/s with 2 s latency and charges
    1 J/MB; payloads are 4 MB, so serialisation takes 4 s. At the first
    rebalance tick (t=1) tasks 2, 3, 4 are evicted:

    * task 2 serialises 1→5, propagates 5→7; deadline 6.5 ⇒ dies PROPAGATING
      (full 4 J charged — the bits crossed);
    * task 3 queues 1→5, serialises 5→9; deadline 6 ⇒ dies SERVING at 6
      (1 of 4 MB crossed ⇒ 1 J);
    * task 4 queues from 1; deadline 3 ⇒ dies QUEUED (0 J).

    Tasks 0 and 1 complete locally at t=100 and t=200.
    """
    task_type = TaskType("T", 0, data_in=4.0)
    eet = EETMatrix(
        np.array([[100.0, 1.0]]), [task_type], ["access_cpu", "relief_cpu"]
    )
    tasks = [
        Task(id=0, task_type=task_type, arrival_time=0.0, deadline=1000.0),
        Task(id=1, task_type=task_type, arrival_time=0.0, deadline=1000.0),
        Task(id=2, task_type=task_type, arrival_time=0.0, deadline=6.5),
        Task(id=3, task_type=task_type, arrival_time=0.0, deadline=6.0),
        Task(id=4, task_type=task_type, arrival_time=0.0, deadline=3.0),
    ]
    topology = InterClusterTopology()
    topology.set_link(
        "access", "relief", latency=2.0, bandwidth=1.0,
        contention="fifo", energy_per_mb=1.0,
    )
    federation = FederationSpec(
        clusters=[
            ClusterSpec("access", {"access_cpu": 1}, weight=1.0),
            ClusterSpec("relief", {"relief_cpu": 1}, weight=0.0),
        ],
        gateway="LOCALITY_FIRST",
        gateway_params={"threshold": 1000.0},
        topology=topology,
        migration=MigrationSpec(
            policy="LONGEST_WAIT",
            interval=1.0,
            pressure_gap=0.0,
            batch_max=10,
            min_queue=1,
        ),
    )
    return Scenario(
        eet=eet,
        machine_counts={"access_cpu": 1, "relief_cpu": 1},
        scheduler="MM",
        queue_capacity=1.0,
        workload=Workload([task_type], tasks),
        federation=federation,
        seed=7,
        name="phase-fixture",
    )


class TestCancellationConservation:
    @pytest.fixture(scope="class")
    def result(self):
        return _phase_scenario().run()

    def test_every_phase_cancelled_exactly_once(self, result):
        stats = result.migration_stats
        assert stats.attempted == 3
        assert stats.delivered == 0
        assert stats.cancelled_in_flight == 3
        usage = result.wan_links["access<->relief"]
        assert usage.abandoned == 3
        assert usage.delivered == 0
        # The energy meter encodes the phase each task died in: queued pays
        # nothing, serving pays the crossed 1 MB, propagating the full 4 MB.
        assert usage.transfer_energy == pytest.approx(5.0)
        # Serving burned 1 s of pipe (5→6); task 2's full serialisation 4 s.
        assert usage.busy_time == pytest.approx(5.0)

    def test_nothing_lost_or_double_counted(self, result):
        summary = result.summary
        assert summary.total_tasks == 5
        assert summary.completed == 2
        assert summary.cancelled == 3
        assert summary.missed == 0
        assert (
            summary.completed + summary.cancelled + summary.missed
            == summary.total_tasks
        )

    def test_cancelled_tasks_accounted_at_destination(self, result):
        # Evicted tasks are re-homed before they travel, so the in-flight
        # cancellations land in the destination cluster's books.
        assert result.per_cluster["relief"].cancelled == 3
        assert result.per_cluster["access"].cancelled == 0

    def test_deterministic_replay(self, result):
        again = _phase_scenario().run()
        assert again.summary == result.summary
        assert again.migration_stats == result.migration_stats
        assert again.events_processed == result.events_processed


# -- migrations and offloads share one pipe ---------------------------------------------


class TestSharedLinkContention:
    def _manager(self):
        topology = InterClusterTopology()
        topology.set_link(
            "edge", "cloud", latency=1.0, bandwidth=1.0, contention="fifo"
        )
        events = EventQueue()
        return WanManager(topology, events, ["edge", "cloud"]), events

    def test_migration_queues_behind_offload(self):
        wan, events = self._manager()
        offload = wan.submit(_task(0), 0, 1, 0.0)
        migration = wan.submit(
            _task(1), 0, 1, 0.0, kind=EventType.TASK_MIGRATION
        )
        # Same physical channel: one pipe, whoever is sending.
        assert migration.channel is offload.channel
        assert offload.phase is TransferPhase.SERVING
        assert migration.phase is TransferPhase.QUEUED
        deliveries = {}
        while events:
            event = events.pop()
            if event[3] is EventType.LINK_TRANSFER:
                WanManager.on_link_event(event, event[0])
            else:
                deliveries[event[4].id] = (event[3], event[0])
        # 4 MB at 1 MB/s: the offload serialises 0→4 (+1 s latency); the
        # migration cannot start before 4, so it lands a full service later
        # — under PR 3's overlap model both would have arrived at t=5.
        assert deliveries[0] == (EventType.TASK_ARRIVAL, 5.0)
        assert deliveries[1] == (EventType.TASK_MIGRATION, 9.0)

    def test_offload_queues_behind_migration(self):
        wan, events = self._manager()
        migration = wan.submit(
            _task(0), 0, 1, 0.0, kind=EventType.TASK_MIGRATION
        )
        offload = wan.submit(_task(1), 0, 1, 0.0)
        assert migration.phase is TransferPhase.SERVING
        assert offload.phase is TransferPhase.QUEUED


class TestInstantLinkMigration:
    def test_zero_delay_link_delivers_inline_and_conserves(self):
        scenario = _phase_scenario()
        # Swap the narrow FIFO uplink for a zero-delay link: migrations are
        # delivered inline (no WAN events) and everything completes on the
        # fast relief machine.
        from dataclasses import replace

        federation = replace(
            scenario.federation, topology=InterClusterTopology()
        )
        result = replace(scenario, federation=federation).run()
        stats = result.migration_stats
        assert stats.attempted == stats.delivered
        assert stats.cancelled_in_flight == 0
        summary = result.summary
        assert (
            summary.completed + summary.cancelled + summary.missed
            == summary.total_tasks
        )


# -- migrated-task result views ---------------------------------------------------------


class TestMigrationViews:
    @pytest.fixture(scope="class")
    def result(self):
        return build_scenario("fed_rebalance", duration=150.0).run()

    def test_matrix_totals_match_stats(self, result):
        total = sum(
            count
            for row in result.migrations.values()
            for count in row.values()
        )
        assert total == result.migration_stats.attempted

    def test_completed_migrated_tasks_have_energy_split(self, result):
        stats = result.migration_stats
        assert stats.completed > 0
        assert stats.migrated_task_energy > 0
        assert stats.migration_wan_energy > 0
        assert stats.energy_per_migrated_task > 0
        per_task = (
            stats.migrated_task_energy + stats.migration_wan_energy
        ) / stats.completed
        assert stats.energy_per_migrated_task == pytest.approx(per_task)

    def test_migrated_tasks_counted_once_in_task_records(self, result):
        migrated_ids = set()
        for row in result.task_records:
            assert row["status"] in ("completed", "cancelled", "missed")
            migrated_ids.add(row["task_id"])
        assert len(migrated_ids) == result.summary.total_tasks

    def test_to_text_renders_migration_section(self, result):
        text = result.to_text()
        assert "migrated > dst" in text
        assert "cancelled in flight" in text

    def test_migration_metrics_reach_campaign_extras(self):
        from repro.experiments.runner import _execute_cell
        from repro.experiments.campaign import RunSpec

        record = _execute_cell(
            RunSpec(
                campaign="c",
                scenario="fed_rebalance",
                overrides={"duration": 100.0},
                label="fed_rebalance",
                scheduler="MM",
                scheduler_params={},
                seed=0,
                run_seed=1,
            )
        )
        assert record.extras["migrations_attempted"] > 0
        assert (
            record.extras["migrations_delivered"]
            + record.extras["migrations_cancelled_in_flight"]
            == record.extras["migrations_attempted"]
        )
