"""Cluster construction and vectorised planning views."""

from collections import Counter

import numpy as np
import pytest

from repro.core.errors import ConfigurationError, EETError
from repro.machines import UNBOUNDED
from repro.machines.cluster import Cluster
from repro.machines.power import PowerProfile
from repro.tasks.task import Task
from repro.tasks.task_type import TaskType


def t1_task(task_types, i=0):
    task = Task(id=i, task_type=task_types[0], arrival_time=0.0, deadline=99.0)
    task.enqueue_batch()
    return task


class TestBuild:
    def test_counts_mapping(self, eet_3x2):
        cluster = Cluster.build(eet_3x2, {"M1": 2, "M2": 1})
        assert len(cluster) == 3
        assert Counter(m.machine_type.name for m in cluster) == {"M1": 2, "M2": 1}

    def test_counts_sequence(self, eet_3x2):
        cluster = Cluster.build(eet_3x2, [1, 2])
        assert Counter(m.machine_type.name for m in cluster) == {"M1": 1, "M2": 2}

    def test_machine_ids_sequential(self, eet_3x2):
        cluster = Cluster.build(eet_3x2, {"M1": 2, "M2": 2})
        assert [m.id for m in cluster] == [0, 1, 2, 3]

    def test_machine_names(self, eet_3x2):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1})
        assert [m.name for m in cluster] == ["M1-0", "M2-1"]

    def test_unknown_type_rejected(self, eet_3x2):
        with pytest.raises(ConfigurationError):
            Cluster.build(eet_3x2, {"MX": 1})

    def test_zero_machines_rejected(self, eet_3x2):
        with pytest.raises(ConfigurationError):
            Cluster.build(eet_3x2, {"M1": 0, "M2": 0})

    def test_negative_count_rejected(self, eet_3x2):
        with pytest.raises(ConfigurationError):
            Cluster.build(eet_3x2, {"M1": -1, "M2": 1})

    def test_sequence_length_mismatch_rejected(self, eet_3x2):
        with pytest.raises(ConfigurationError):
            Cluster.build(eet_3x2, [1])

    def test_power_profiles_attached(self, eet_3x2):
        cluster = Cluster.build(
            eet_3x2,
            {"M1": 1, "M2": 1},
            power_profiles={"M1": PowerProfile(idle_watts=7.0)},
        )
        assert cluster[0].machine_type.power.idle_watts == 7.0
        assert cluster[1].machine_type.power.idle_watts == 0.0

    def test_extension_parameters_attached(self, eet_3x2):
        cluster = Cluster.build(
            eet_3x2,
            {"M1": 1, "M2": 1},
            memory_capacities={"M1": 512.0},
            network={"M2": (0.1, 50.0)},
        )
        assert cluster[0].machine_type.memory_capacity == 512.0
        assert cluster[1].machine_type.network_latency == 0.1
        assert cluster[1].machine_type.network_bandwidth == 50.0


class TestVectorViews:
    def test_eet_vector_alignment(self, eet_3x2, task_types):
        cluster = Cluster.build(eet_3x2, {"M1": 2, "M2": 1})
        vec = cluster.eet_vector(t1_task(task_types))
        np.testing.assert_array_equal(vec, [4.0, 4.0, 10.0])

    def test_ready_times_all_idle(self, eet_3x2):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1})
        np.testing.assert_array_equal(cluster.ready_times(3.0), [3.0, 3.0])

    def test_completion_times(self, eet_3x2, task_types):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1})
        completion = cluster.completion_times(t1_task(task_types), 2.0)
        np.testing.assert_array_equal(completion, [6.0, 12.0])

    def test_ready_times_reflect_failures(self, eet_3x2):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1})
        cluster[0].fail(1.0)
        ready = cluster.ready_times(1.0)
        assert ready[0] == np.inf and ready[1] == 1.0

    def test_failure_and_repair_track_n_down(self, eet_3x2):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1})
        cluster[0].fail(1.0)
        assert cluster.state.n_down == 1
        assert cluster.state.up == [False, True]
        cluster[0].repair(2.0)
        assert cluster.state.n_down == 0
        assert cluster.state.up == [True, True]
        np.testing.assert_array_equal(cluster.ready_times(2.0), [2.0, 2.0])

    def test_free_slots_snapshot_marks_full_queues(self, eet_3x2, task_types):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1}, queue_capacity=1)
        assert (cluster.free_slots_snapshot() > 0).all()
        cluster[0].enqueue(t1_task(task_types, 0), 0.0)
        open_ = cluster.free_slots_snapshot() > 0
        assert not open_[0] and open_[1]
        cluster[1].fail(1.0)
        np.testing.assert_array_equal(cluster.free_slots_snapshot(), [0.0, 0.0])

    def test_free_slots_snapshot_is_a_fresh_copy(self, eet_3x2):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1}, queue_capacity=2)
        snapshot = cluster.free_slots_snapshot()
        snapshot[0] -= 1
        np.testing.assert_array_equal(cluster.free_slots_snapshot(), [2.0, 2.0])
        assert cluster[0].can_accept()


class TestUnknownTaskType:
    """Every planning helper raises the EET's own error for an unknown type."""

    HELPERS = {
        "eet_vector": lambda c, t: c.eet_vector(t),
        "eet_rows": lambda c, t: c.eet_rows([t]),
        "scalar_eet_rows": lambda c, t: c.scalar_eet_rows([t]),
        "energy_rows": lambda c, t: c.energy_rows([t]),
        "scalar_energy_rows": lambda c, t: c.scalar_energy_rows([t]),
        "completion_times": lambda c, t: c.completion_times(t, 0.0),
        "argmin_completion": lambda c, t: c.argmin_completion(t, 0.0),
        "min_completion_time": lambda c, t: c.min_completion_time(t, 0.0),
        "argmin_open_completion": lambda c, t: c.argmin_open_completion(t, 0.0),
        "argmin_open_energy": lambda c, t: c.argmin_open_energy(t, 0.0),
    }

    @pytest.mark.parametrize("helper", sorted(HELPERS))
    @pytest.mark.parametrize("per_type", [1, 40])  # scalar and vector branch
    def test_helper_raises_eet_error(self, eet_3x2, helper, per_type):
        cluster = Cluster.build(eet_3x2, {"M1": per_type, "M2": per_type})
        alien = Task(
            id=0, task_type=TaskType("ALIEN", 0), arrival_time=0.0, deadline=9.0
        )
        with pytest.raises(EETError, match="unknown task type 'ALIEN'"):
            self.HELPERS[helper](cluster, alien)


class TestUtilities:
    def test_build_queue_capacity(self, eet_3x2):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1}, queue_capacity=2)
        assert all(m.queue_capacity == 2 for m in cluster)
        assert cluster.state.slots == [2.0, 2.0]
        with pytest.raises(ConfigurationError, match="queue_capacity"):
            Cluster.build(eet_3x2, {"M1": 1, "M2": 1}, queue_capacity=1.5)

    def test_unbound_queues(self, eet_3x2):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1}, queue_capacity=2)
        cluster.unbound_queues()
        assert all(m.queue_capacity == UNBOUNDED for m in cluster)
        assert cluster.state.slots == [UNBOUNDED, UNBOUNDED]

    def test_unbound_queues_with_inflight_rejected(self, eet_3x2, task_types):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1}, queue_capacity=2)
        cluster[0].enqueue(t1_task(task_types), 0.0)
        with pytest.raises(ConfigurationError):
            cluster.unbound_queues()


class TestEETCacheImmutability:
    def test_eet_vector_view_is_read_only(self, eet_3x2, task_types):
        cluster = Cluster.build(eet_3x2, {"M1": 1, "M2": 1})
        vec = cluster.eet_vector(t1_task(task_types))
        with pytest.raises(ValueError):
            vec += 1.0
