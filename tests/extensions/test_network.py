"""Communication extension: links, transfer delays, in-simulation effects."""

import numpy as np
import pytest

from repro.core.config import Scenario
from repro.core.errors import ConfigurationError
from repro.machines.eet import EETMatrix
from repro.machines.machine_type import MachineType
from repro.net.topology import Link
from repro.net.transfer import transfer_delay
from repro.tasks.task_type import TaskType


class TestLink:
    def test_latency_only(self):
        link = Link(latency=0.5)
        assert link.delay_for(100.0) == 0.5

    def test_latency_plus_bandwidth(self):
        link = Link(latency=0.1, bandwidth=10.0)
        assert link.delay_for(5.0) == pytest.approx(0.6)

    def test_zero_payload(self):
        link = Link(latency=0.1, bandwidth=10.0)
        assert link.delay_for(0.0) == 0.1

    def test_negative_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            Link(latency=-0.1)
        with pytest.raises(ConfigurationError):
            Link(bandwidth=-1.0)

    def test_negative_payload_rejected(self):
        with pytest.raises(ConfigurationError):
            Link().delay_for(-1.0)


class TestTopology:
    def test_default_link_survives_scenario_round_trip(self):
        import numpy as np

        from repro.core.config import Scenario
        from repro.machines.eet import EETMatrix

        eet = EETMatrix(
            np.array([[4.0, 2.0]]), ["T"], ["CPU", "GPU"]
        )
        scenario = Scenario(
            eet=eet,
            machine_counts={"CPU": 1, "GPU": 1},
            scheduler="MECT",
            generator={"duration": 10.0},
            network={"CPU": (0.25, 10.0), "GPU": (0.1, 50.0)},
            enable_network=True,
        )
        rebuilt = Scenario.from_dict(scenario.to_dict())
        cluster = rebuilt.build_cluster()
        cpu = next(m for m in cluster if m.machine_type.name == "CPU")
        assert cpu.machine_type.network_latency == 0.25
        assert cpu.machine_type.network_bandwidth == 10.0


class TestTransferDelay:
    def test_delay_components(self):
        task_type = TaskType("T", 0, data_in=10.0, data_out=2.0)
        mtype = MachineType("M", 0, network_latency=0.5, network_bandwidth=5.0)
        assert transfer_delay(task_type, mtype) == pytest.approx(2.5)

    def test_zero_bandwidth_is_latency_only(self):
        task_type = TaskType("T", 0, data_in=10.0)
        mtype = MachineType("M", 0, network_latency=0.5)
        assert transfer_delay(task_type, mtype) == 0.5

    def test_no_network_zero_delay(self):
        task_type = TaskType("T", 0)
        mtype = MachineType("M", 0)
        assert transfer_delay(task_type, mtype) == 0.0


class TestInSimulation:
    def _scenario(self, enable_network, latency=2.0):
        task_type = TaskType("T", 0, data_in=10.0)
        eet = EETMatrix(np.array([[5.0]]), [task_type], ["M"])
        from repro.tasks.task import Task
        from repro.tasks.workload import Workload

        workload = Workload(
            task_types=[task_type],
            tasks=[Task(id=0, task_type=task_type, arrival_time=0.0, deadline=50.0)],
        )
        return Scenario(
            eet=eet,
            machine_counts={"M": 1},
            scheduler="MECT",
            workload=workload,
            network={"M": (latency, 10.0)},
            enable_network=enable_network,
        )

    def test_network_delays_start(self):
        # delay = 2.0 latency + 10 MB / 10 MBps = 3.0 s; start at 3, end at 8
        result = self._scenario(enable_network=True).run()
        (record,) = result.task_records
        assert record["start_time"] == pytest.approx(3.0)
        assert record["completion_time"] == pytest.approx(8.0)

    def test_network_disabled_ignores_links(self):
        result = self._scenario(enable_network=False).run()
        (record,) = result.task_records
        assert record["start_time"] == 0.0
        assert record["completion_time"] == pytest.approx(5.0)

    def test_miss_in_transit_recorded(self):
        task_type = TaskType("T", 0, data_in=100.0)
        eet = EETMatrix(np.array([[1.0]]), [task_type], ["M"])
        from repro.tasks.task import Task
        from repro.tasks.workload import Workload

        workload = Workload(
            task_types=[task_type],
            tasks=[Task(id=0, task_type=task_type, arrival_time=0.0, deadline=3.0)],
        )
        # transfer = 10 s latency: the deadline (3) fires mid-transit.
        scenario = Scenario(
            eet=eet,
            machine_counts={"M": 1},
            scheduler="MECT",
            workload=workload,
            network={"M": (10.0, 0.0)},
            enable_network=True,
        )
        result = scenario.run()
        (record,) = result.task_records
        assert record["status"] == "missed"
        assert record["drop_stage"] == "in_transit"
