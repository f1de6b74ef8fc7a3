"""FederatedSimulator semantics: routing, WAN delays, conservation, determinism."""

import dataclasses

import numpy as np
import pytest

from repro.core.config import Scenario
from repro.core.errors import SchedulingError, SimulationStateError
from repro.core.events import EventType, make_event
from repro.federation import ClusterSpec, FederationSpec
from repro.machines.eet import EETMatrix
from repro.machines.failures import FailureModel
from repro.net import InterClusterTopology
from repro.scenarios import build_scenario
from repro.tasks.task import Task
from repro.tasks.task_type import TaskType
from repro.tasks.workload import Workload


def offload_scenario(*, tasks, gateway="EET_AWARE_REMOTE", latency=1.0,
                     bandwidth=0.0, scheduler="MECT", **scenario_kwargs):
    """1 edge SLOW machine + 1 cloud FAST machine, explicit workload."""
    task_types = [TaskType("T1", 0, data_in=0.0)]
    eet = EETMatrix(np.array([[4.0, 2.0]]), task_types, ["SLOW", "FAST"])
    workload = Workload(
        task_types=task_types,
        tasks=[
            Task(
                id=i,
                task_type=task_types[0],
                arrival_time=arrival,
                deadline=deadline,
            )
            for i, (arrival, deadline) in enumerate(tasks)
        ],
    )
    topo = InterClusterTopology()
    topo.set_link("edge", "cloud", latency, bandwidth)
    federation = FederationSpec(
        clusters=[
            ClusterSpec(name="edge", machine_counts={"SLOW": 1}, weight=1.0),
            ClusterSpec(name="cloud", machine_counts={"FAST": 1}, weight=0.0),
        ],
        gateway=gateway,
        topology=topo,
    )
    return Scenario(
        eet=eet,
        machine_counts={"SLOW": 1, "FAST": 1},
        scheduler=scheduler,
        workload=workload,
        federation=federation,
        seed=3,
        name="offload-test",
        **scenario_kwargs,
    )


EQUIVALENCE_CASES = [
    # Queue capacity 3, unbounded and 2: the shard set-up paths for both.
    pytest.param("satellite_imaging", {}, id="satellite_imaging"),
    pytest.param("classroom_homogeneous", {}, id="classroom_homogeneous"),
    pytest.param("edge_ai", {}, id="edge_ai"),
    pytest.param(
        "satellite_imaging", {"enable_network": True}, id="network"
    ),
    pytest.param(
        "satellite_imaging",
        {"scheduling_overhead": {"per_pass": 0.1}},
        id="overhead",
    ),
    pytest.param(
        "satellite_imaging", {"drop_on_deadline": False}, id="no_drop"
    ),
]


class TestSingleClusterEquivalence:
    @pytest.mark.parametrize(
        "scheduler", ["FCFS", "MECT", "MM", "MSD", "MMU", "ELARE", "FELARE"]
    )
    @pytest.mark.parametrize("preset,variant", EQUIVALENCE_CASES)
    def test_one_cluster_federation_matches_standalone(
        self, preset, variant, scheduler
    ):
        base = dataclasses.replace(
            build_scenario(preset, scheduler=scheduler, seed=41), **variant
        )
        federation = FederationSpec(
            clusters=[
                ClusterSpec(
                    name="all",
                    machine_counts=dict(base.machine_counts),
                    weight=1.0,
                )
            ],
            gateway="LOCALITY_FIRST",
        )
        federated = dataclasses.replace(base, federation=federation)
        single = base.run()
        multi = federated.run()
        assert multi.summary == single.summary
        assert multi.end_time == single.end_time
        assert multi.events_processed == single.events_processed
        assert multi.per_cluster["all"] == single.summary
        assert multi.offloaded == 0


class TestWanTransfer:
    def test_offloaded_task_pays_the_wan_delay(self):
        result = offload_scenario(tasks=[(0.0, 100.0)]).run()
        # EET_AWARE_REMOTE: 1.0 (WAN) + 2.0 (FAST) < 4.0 (SLOW) -> offload.
        assert result.offloaded == 1
        assert result.routing == {
            "edge": {"edge": 0, "cloud": 1},
            "cloud": {"edge": 0, "cloud": 0},
        }
        assert result.summary.makespan == pytest.approx(3.0)
        assert result.wan_time_total == pytest.approx(1.0)
        assert result.per_cluster["cloud"].completed == 1
        assert result.per_cluster["edge"].total_tasks == 0

    def test_expensive_wan_keeps_the_task_local(self):
        result = offload_scenario(tasks=[(0.0, 100.0)], latency=3.0).run()
        assert result.offloaded == 0
        assert result.summary.makespan == pytest.approx(4.0)
        assert result.wan_time_total == 0.0

    def test_deadline_in_transit_cancels_the_task(self):
        result = offload_scenario(tasks=[(0.0, 0.5)]).run()
        summary = result.summary
        assert summary.total_tasks == 1
        assert summary.cancelled == 1
        assert summary.completed == 0
        # Accounted to the destination cluster it was travelling toward.
        assert result.per_cluster["cloud"].cancelled == 1
        # The abandoned delivery never fires: the run ends at the deadline.
        assert result.end_time == pytest.approx(0.5)

    def test_zero_latency_offload_is_immediate(self):
        result = offload_scenario(tasks=[(0.0, 100.0)], latency=0.0).run()
        assert result.offloaded == 1
        assert result.summary.makespan == pytest.approx(2.0)
        assert result.wan_time_total == 0.0


class TestConservationAndAccounting:
    def test_per_cluster_and_global_conservation(self):
        result = build_scenario("fed_heavytail", duration=250.0).run()
        total = result.summary.total_tasks
        assert total > 0
        arrivals = {
            dst: sum(row[dst] for row in result.routing.values())
            for dst in result.routing
        }
        per_cluster_total = 0
        for name, summary in result.per_cluster.items():
            assert summary.total_tasks == arrivals[name]
            assert (
                summary.completed + summary.cancelled + summary.missed
                == summary.total_tasks
            )
            per_cluster_total += summary.total_tasks
        assert per_cluster_total == total
        assert (
            result.summary.completed
            + result.summary.cancelled
            + result.summary.missed
            == total
        )
        assert sum(sum(row.values()) for row in result.routing.values()) == total

    def test_conservation_with_failures(self):
        scenario = build_scenario("edge_cloud", duration=150.0)
        scenario = dataclasses.replace(
            scenario, failure_model=FailureModel(mtbf=60.0, mttr=10.0)
        )
        result = scenario.run()
        summary = result.summary
        assert summary.total_tasks > 0
        assert (
            summary.completed + summary.cancelled + summary.missed
            == summary.total_tasks
        )
        for name, cluster_summary in result.per_cluster.items():
            assert (
                cluster_summary.completed
                + cluster_summary.cancelled
                + cluster_summary.missed
                == cluster_summary.total_tasks
            )

    @pytest.mark.parametrize("preset", ["geo_3site", "hier_3region"])
    def test_wan_offload_counters_balance(self, preset):
        """Every offload is delivered or cancelled in flight, per cluster."""
        simulator = build_scenario(preset, duration=100.0).build_simulator()
        result = simulator.run()
        root = simulator.tree_rollup().root.stats
        assert result.offloaded > 0
        assert root["wan_attempted"] == result.offloaded
        assert root["wan_attempted"] == (
            root["wan_delivered"] + root["wan_cancelled_in_flight"]
        )

    @pytest.mark.parametrize("preset", ["geo_3site", "hier_3region"])
    def test_wan_conservation_violation_raises(self, preset):
        simulator = build_scenario(preset, duration=100.0).build_simulator()
        for _ in range(10):
            simulator.step()
        simulator._wan_delivered[1] += 1
        name = simulator.shards[1].name
        with pytest.raises(SimulationStateError, match=f"'{name}'"):
            simulator.run()


class TestGatewayAnswers:
    @pytest.mark.parametrize("preset", ["geo_3site", "hier_3region"])
    @pytest.mark.parametrize("answer", ["n_leaves", -1, 1.0, None])
    def test_bad_gateway_answer_is_a_scheduling_error(self, preset, answer):
        """A custom gateway returning a non-integer or an out-of-range
        index fails with a typed error naming the gateway and the value,
        on a mesh and on a tree alike."""
        simulator = build_scenario(preset, duration=100.0).build_simulator()
        if answer == "n_leaves":
            answer = len(simulator.shards)
        simulator.gateway.choose_cluster = lambda ctx: answer
        with pytest.raises(SchedulingError) as info:
            simulator.run()
        message = str(info.value)
        assert simulator.gateway.name in message
        assert repr(answer) in message

    def test_integer_like_answer_is_normalised(self):
        simulator = build_scenario("geo_3site", duration=100.0).build_simulator()
        simulator.gateway.choose_cluster = lambda ctx: np.int64(ctx.origin)
        result = simulator.run()
        assert result.offloaded == 0
        assert all(
            type(task.cluster) is int
            for shard in simulator.shards
            for task in shard.collector.tasks()
        )


class TestDeterminism:
    def test_back_to_back_runs_identical(self):
        scenario = build_scenario("edge_cloud", duration=150.0)
        first = scenario.run()
        second = scenario.run()
        assert first.summary == second.summary
        assert first.routing == second.routing
        assert first.events_processed == second.events_processed

    def test_origins_invariant_across_gateway_sweeps(self):
        least = build_scenario(
            "geo_3site", gateway="LEAST_LOADED", duration=150.0
        ).run()
        eet_aware = build_scenario(
            "geo_3site", gateway="EET_AWARE_REMOTE", duration=150.0
        ).run()
        def origins(result):
            return {src: sum(row.values()) for src, row in result.routing.items()}

        assert origins(least) == origins(eet_aware)


class TestResultSurface:
    @pytest.fixture(scope="class")
    def result(self):
        return build_scenario("edge_cloud", duration=120.0).run()

    def test_machine_names_are_cluster_qualified(self, result):
        names = [row["machine"] for row in result.machine_records]
        assert len(names) == len(set(names))
        assert all(":" in name for name in names)
        assert {row["cluster"] for row in result.machine_records} == {
            "edge",
            "cloud",
        }

    def test_task_records_sorted_and_tagged(self, result):
        ids = [row["task_id"] for row in result.task_records]
        assert ids == sorted(ids)
        assert all(row["cluster"] in ("edge", "cloud") for row in result.task_records)

    def test_reports_bundle_and_text(self, result, tmp_path):
        paths = result.reports.save_all(tmp_path)
        assert len(paths) == 4
        text = result.to_text()
        assert "Federation Summary" in text
        assert "GLOBAL" in text
        assert "offloaded:" in text

    def test_offload_rate_and_energy(self, result):
        assert 0.0 <= result.offload_rate <= 1.0
        assert result.energy.total == pytest.approx(
            result.summary.total_energy
        )

    def test_scheduler_and_gateway_names(self, result):
        assert result.scheduler_name == "MECT"
        assert result.gateway_name == "EET_AWARE_REMOTE"


class TestStep:
    def test_step_until_finished(self):
        simulator = offload_scenario(tasks=[(0.0, 100.0)]).build_simulator()
        steps = 0
        while simulator.step() is not None:
            steps += 1
        assert simulator.is_finished
        assert steps == simulator.events_processed
        assert simulator.result().summary.completed == 1

    def test_time_starts_at_zero_and_never_moves_back(self):
        simulator = offload_scenario(
            tasks=[(1.0, 100.0), (1.0, 100.0)]
        ).build_simulator()
        assert simulator.now == 0.0
        simulator.step()
        simulator.step()  # a second event at the same time is fine
        assert simulator.now == 1.0
        simulator.events.push(make_event(0.5, EventType.TASK_ARRIVAL))
        with pytest.raises(SimulationStateError, match="time cannot move backwards"):
            simulator.step()
        assert simulator.now == 1.0
