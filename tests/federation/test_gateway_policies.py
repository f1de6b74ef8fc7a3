"""Gateway policies: deterministic routing decisions on crafted shard states."""

import numpy as np
import pytest

from repro.core.errors import (
    ConfigurationError,
    SchedulingError,
    UnknownGatewayError,
)
from repro.core.event_queue import EventQueue
from repro.federation import ClusterSpec, FederatedSimulator, FederationSpec
from repro.machines.cluster import Cluster
from repro.machines.eet import EETMatrix
from repro.net import InterClusterTopology, WanManager
from repro.scenarios import build_scenario
from repro.scheduling.federation import (
    GatewayContext,
    create_gateway,
    gateway_class,
)
from repro.tasks.task import Task
from repro.tasks.task_type import TaskType
from repro.tasks.workload import Workload

TASK_TYPES = [TaskType("T1", 0, data_in=10.0)]
EET = EETMatrix(np.array([[4.0, 2.0]]), TASK_TYPES, ["SLOW", "FAST"])


class StubShard:
    """Minimal ShardView implementation for policy unit tests."""

    def __init__(self, index, name, *, counts, in_system=0, weight=1.0):
        self.index = index
        self.name = name
        self.weight = weight
        self.cluster = Cluster.build(EET, counts)
        self.in_system = in_system

    def pressure(self):
        alive = len(self.cluster.machines) - self.cluster.state.n_down
        return self.in_system / alive if alive > 0 else float("inf")


def make_ctx(shards, *, topology=None, origin=0, now=0.0, seed=0):
    task = Task(id=0, task_type=TASK_TYPES[0], arrival_time=now, deadline=1e9)
    task.origin_cluster = origin
    topology = topology or InterClusterTopology()
    return GatewayContext(
        now=now,
        task=task,
        origin=origin,
        shards=shards,
        topology=topology,
        rng=np.random.default_rng(seed),
        wan=WanManager(topology, EventQueue(), [s.name for s in shards]),
    )


def real_shard(counts, routed):
    """Shard 0 of a one-cluster federation, with *routed* tasks outstanding."""
    spec = FederationSpec(clusters=[ClusterSpec("a", counts)])
    simulator = FederatedSimulator(
        spec, EET, Workload(task_types=TASK_TYPES, tasks=[])
    )
    shard = simulator.shards[0]
    shard.routed = routed
    return shard


class TestShardPressure:
    def test_counts_outstanding_per_live_machine(self):
        shard = real_shard({"SLOW": 2}, routed=4)
        assert shard.pressure() == pytest.approx(2.0)

    def test_all_down_is_infinite(self):
        shard = real_shard({"SLOW": 1}, routed=0)
        shard.cluster.machines[0].fail(0.0)
        assert shard.pressure() == float("inf")

    @pytest.mark.parametrize(
        "preset",
        [
            "geo_3site",
            "edge_cloud",
            "fed_rebalance",
            "fed_heavytail",
            "hier_3region",
            "fed_congested",
            "diurnal_wan",
            "hier_deep",
            "fed_adaptive",
        ],
    )
    def test_matches_its_definition_at_every_event(self, preset):
        """``pressure()`` is in_system per live machine all through a run."""
        simulator = build_scenario(preset, duration=100.0).build_simulator()
        while simulator.step() is not None:
            for shard in simulator.shards:
                alive = len(shard.cluster.machines) - shard.cluster.state.n_down
                expected = shard.in_system / alive if alive else float("inf")
                assert shard.pressure() == expected


UNCONTENDED = [(0.5, 0.0, 10.0), (0.2, 25.0, 10.0), (0.0, 4.0, 0.0), (1.5, 8.0, 64.0)]


class TestWanSignals:
    """On an uncontended link the live estimate is the static topology delay."""

    @pytest.mark.parametrize("latency,bandwidth,megabytes", UNCONTENDED)
    def test_estimate_is_the_static_delay(self, latency, bandwidth, megabytes):
        shards = [
            StubShard(0, "a", counts={"SLOW": 1}),
            StubShard(1, "b", counts={"FAST": 1}),
        ]
        topo = InterClusterTopology()
        topo.set_link("a", "b", latency, bandwidth)
        ctx = make_ctx(shards, topology=topo)
        ctx.task = Task(
            id=0,
            task_type=TaskType("T1", 0, data_in=megabytes),
            arrival_time=0.0,
            deadline=1e9,
        )
        static = topo.wan_delay("a", "b", megabytes)
        assert ctx.estimated_wan_delay_to(1) == static
        assert ctx.estimated_wan_delay_to(0) == 0.0
        # Traffic on the link opens its channel; a "none" link still
        # answers with the static delay.
        ctx.wan.submit(ctx.task, 0, 1, 0.0)
        assert ctx.estimated_wan_delay_to(1) == static
        assert ctx.wan.queue_depth(0, 1) == 0


class TestLocalityFirst:
    def test_stays_home_under_threshold(self):
        shards = [
            StubShard(0, "a", counts={"SLOW": 1}, in_system=2),
            StubShard(1, "b", counts={"FAST": 4}, in_system=0),
        ]
        gateway = create_gateway("LOCALITY_FIRST", threshold=2.0)
        assert gateway.choose_cluster(make_ctx(shards, origin=0)) == 0

    def test_spills_to_least_loaded_when_saturated(self):
        shards = [
            StubShard(0, "a", counts={"SLOW": 1}, in_system=5),
            StubShard(1, "b", counts={"FAST": 1}, in_system=1),
            StubShard(2, "c", counts={"FAST": 1}, in_system=3),
        ]
        gateway = create_gateway("LOCALITY_FIRST", threshold=2.0)
        assert gateway.choose_cluster(make_ctx(shards, origin=0)) == 1

    def test_stays_if_everyone_else_is_worse(self):
        shards = [
            StubShard(0, "a", counts={"SLOW": 1}, in_system=5),
            StubShard(1, "b", counts={"FAST": 1}, in_system=9),
        ]
        gateway = create_gateway("LOCALITY_FIRST", threshold=2.0)
        assert gateway.choose_cluster(make_ctx(shards, origin=0)) == 0

    def test_rejects_negative_threshold(self):
        with pytest.raises(ConfigurationError):
            create_gateway("LOCALITY_FIRST", threshold=-1.0)


class TestLeastLoaded:
    def test_picks_minimum_pressure(self):
        shards = [
            StubShard(0, "a", counts={"SLOW": 1}, in_system=3),
            StubShard(1, "b", counts={"FAST": 2}, in_system=1),
        ]
        gateway = create_gateway("LEAST_LOADED")
        assert gateway.choose_cluster(make_ctx(shards, origin=0)) == 1

    def test_tie_prefers_origin(self):
        shards = [
            StubShard(0, "a", counts={"SLOW": 1}, in_system=1),
            StubShard(1, "b", counts={"FAST": 1}, in_system=1),
        ]
        gateway = create_gateway("LEAST_LOADED")
        assert gateway.choose_cluster(make_ctx(shards, origin=1)) == 1


class TestEETAwareRemote:
    def test_offloads_to_faster_cluster_when_wan_is_cheap(self):
        shards = [
            StubShard(0, "a", counts={"SLOW": 1}),
            StubShard(1, "b", counts={"FAST": 1}),
        ]
        topo = InterClusterTopology()
        topo.set_link("a", "b", 0.5)  # 0.5 + 2.0 < 4.0: offload wins
        gateway = create_gateway("EET_AWARE_REMOTE")
        assert gateway.choose_cluster(make_ctx(shards, topology=topo)) == 1

    def test_stays_home_when_wan_dominates(self):
        shards = [
            StubShard(0, "a", counts={"SLOW": 1}),
            StubShard(1, "b", counts={"FAST": 1}),
        ]
        topo = InterClusterTopology()
        topo.set_link("a", "b", 3.0)  # 3.0 + 2.0 > 4.0: stay home
        gateway = create_gateway("EET_AWARE_REMOTE")
        assert gateway.choose_cluster(make_ctx(shards, topology=topo)) == 0

    def test_bandwidth_term_uses_task_payload(self):
        shards = [
            StubShard(0, "a", counts={"SLOW": 1}),
            StubShard(1, "b", counts={"FAST": 1}),
        ]
        # data_in=10 MB over 4 MB/s = 2.5 s: 2.5 + 2.0 > 4.0, stay home.
        topo = InterClusterTopology()
        topo.set_link("a", "b", 0.0, 4.0)
        gateway = create_gateway("EET_AWARE_REMOTE")
        assert gateway.choose_cluster(make_ctx(shards, topology=topo)) == 0


class TestRandomSplit:
    def test_never_routes_to_zero_weight(self):
        shards = [
            StubShard(0, "a", counts={"SLOW": 1}, weight=1.0),
            StubShard(1, "b", counts={"FAST": 1}, weight=0.0),
        ]
        gateway = create_gateway("RANDOM_SPLIT")
        ctx = make_ctx(shards)
        assert all(gateway.choose_cluster(ctx) == 0 for _ in range(50))

    def test_explicit_weights_override(self):
        shards = [
            StubShard(0, "a", counts={"SLOW": 1}, weight=1.0),
            StubShard(1, "b", counts={"FAST": 1}, weight=0.0),
        ]
        gateway = create_gateway("RANDOM_SPLIT", weights=[0.0, 1.0])
        assert gateway.choose_cluster(make_ctx(shards)) == 1

    def test_weight_length_mismatch_is_an_error(self):
        shards = [StubShard(0, "a", counts={"SLOW": 1})]
        gateway = create_gateway("RANDOM_SPLIT", weights=[0.5, 0.5])
        with pytest.raises(SchedulingError):
            gateway.choose_cluster(make_ctx(shards))

    def test_rejects_bad_weights(self):
        with pytest.raises(ConfigurationError):
            create_gateway("RANDOM_SPLIT", weights=[])
        with pytest.raises(ConfigurationError):
            create_gateway("RANDOM_SPLIT", weights=[-1.0, 2.0])
        with pytest.raises(ConfigurationError):
            create_gateway("RANDOM_SPLIT", weights=[0.0, 0.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            create_gateway("RANDOM_SPLIT", weights=[bad, 1.0, 1.0])

    def test_cached_cdf_follows_the_shard_list(self):
        gateway = create_gateway("RANDOM_SPLIT")
        home = [StubShard(0, "a", counts={"SLOW": 1}, weight=1.0),
                StubShard(1, "b", counts={"FAST": 1}, weight=0.0)]
        away = [StubShard(0, "a", counts={"SLOW": 1}, weight=0.0),
                StubShard(1, "b", counts={"FAST": 1}, weight=1.0)]
        assert gateway.choose_cluster(make_ctx(home)) == 0
        assert gateway.choose_cluster(make_ctx(away)) == 1

    def test_non_finite_shard_weight_is_an_error(self):
        shards = [StubShard(0, "a", counts={"SLOW": 1}, weight=float("nan")),
                  StubShard(1, "b", counts={"FAST": 1}, weight=1.0)]
        with pytest.raises(SchedulingError, match="finite"):
            create_gateway("RANDOM_SPLIT").choose_cluster(make_ctx(shards))


class TestRegistry:
    def test_lookup_is_case_and_hyphen_insensitive(self):
        assert gateway_class("least-loaded").name == "LEAST_LOADED"
        assert gateway_class("Locality_First").name == "LOCALITY_FIRST"
        assert gateway_class("eetremote").name == "EET_AWARE_REMOTE"

    def test_unknown_gateway_error(self):
        with pytest.raises(UnknownGatewayError):
            gateway_class("TELEPORT")

    def test_bad_params_raise_configuration_error(self):
        with pytest.raises(ConfigurationError):
            create_gateway("LEAST_LOADED", not_a_param=1)
