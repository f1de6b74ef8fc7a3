"""WAN links as queueing resources: contention disciplines + link energy.

The timing assertions use bandwidth/payload values that are exact in binary
floating point (0.5, 1, 2, 4, ...), so delivery instants are asserted
exactly, not approximately.
"""

import numpy as np
import pytest

from repro.core.config import Scenario
from repro.core.errors import ConfigurationError
from repro.core.event_queue import EventQueue
from repro.core.events import EventType
from repro.federation import ClusterSpec, FederationSpec
from repro.machines.eet import EETMatrix
from repro.net import InterClusterTopology, Link, WanManager
from repro.net.wan import TransferPhase
from repro.tasks.task import Task
from repro.tasks.task_type import TaskType
from repro.tasks.workload import Workload


# -- Link parameter surface ------------------------------------------------------------


class TestLinkParameters:
    def test_contention_requires_bandwidth(self):
        with pytest.raises(ConfigurationError):
            Link(latency=1.0, bandwidth=0.0, contention="fifo")

    def test_unknown_contention_rejected(self):
        with pytest.raises(ConfigurationError):
            Link(latency=1.0, bandwidth=1.0, contention="wfq")

    def test_negative_energy_rejected(self):
        with pytest.raises(ConfigurationError):
            Link(bandwidth=1.0, energy_per_mb=-1.0)
        with pytest.raises(ConfigurationError):
            Link(idle_watts=-0.1)

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"latency": float("nan")}, "latency"),
            ({"latency": float("inf")}, "latency"),
            ({"bandwidth": float("nan"), "contention": "fifo"}, "bandwidth"),
            ({"bandwidth": float("inf")}, "bandwidth"),
            ({"bandwidth": 1.0, "energy_per_mb": float("nan")}, "energy_per_mb"),
            ({"idle_watts": float("inf")}, "idle_watts"),
            ({"busy_watts": float("nan")}, "busy_watts"),
        ],
    )
    def test_non_finite_parameter_rejected(self, kwargs, field):
        with pytest.raises(ConfigurationError, match=field):
            Link(**kwargs)

    @pytest.mark.parametrize(
        "spec,match",
        [
            ([1], r"\[latency, bandwidth\]"),
            ([0.1, 1.0, 2.0], r"\[latency, bandwidth\]"),
            (0.5, r"\[latency, bandwidth\]"),
            (["x", 1], "latency"),
            ([0.1, None], "bandwidth"),
            ({"latency": 0.1, "bandwidth": "fast"}, "bandwidth"),
            (
                {"latency": 0.1, "bandwidth": float("nan"), "contention": "fifo"},
                "bandwidth",
            ),
        ],
    )
    def test_malformed_spec_rejected(self, spec, match):
        with pytest.raises(ConfigurationError, match=match):
            Link.from_spec(spec)

    def test_plain_link_spec_stays_compact(self):
        # Legacy scenario JSON must round-trip byte-identically.
        link = Link(0.5, 10.0)
        assert link.to_spec() == [0.5, 10.0]
        assert Link.from_spec([0.5, 10.0]) == link

    def test_unknown_spec_key_rejected(self):
        # A misspelled field must fail loudly, not degrade to 0.0.
        with pytest.raises(ConfigurationError, match="idle_watt"):
            Link.from_spec({"latency": 0.05, "idle_watt": 2.0})

    def test_rich_link_spec_round_trips(self):
        link = Link(
            0.5,
            10.0,
            contention="ps",
            energy_per_mb=0.3,
            idle_watts=2.0,
            busy_watts=12.0,
        )
        assert Link.from_spec(link.to_spec()) == link

    def test_service_time_and_transfer_energy(self):
        link = Link(1.0, 4.0, contention="fifo", energy_per_mb=2.0)
        assert link.service_time(8.0) == 2.0
        assert link.transfer_energy(8.0) == 16.0
        assert link.delay_for(8.0) == 3.0


class TestLinkKey:
    def test_symmetric_traffic_shares_one_pipe(self):
        topo = InterClusterTopology()
        topo.set_link("a", "b", 1.0, 2.0)
        assert topo.link_key("a", "b") == topo.link_key("b", "a") == ("a", "b")

    def test_symmetric_default_pairs_canonicalise(self):
        topo = InterClusterTopology(default=Link(1.0, 2.0))
        assert topo.link_key("x", "y") == topo.link_key("y", "x")

    def test_asymmetric_directions_are_distinct_pipes(self):
        topo = InterClusterTopology(symmetric=False, default=Link(1.0, 2.0))
        assert topo.link_key("a", "b") != topo.link_key("b", "a")

    def test_two_directed_entries_are_distinct_pipes(self):
        topo = InterClusterTopology()
        topo.set_link("a", "b", 1.0, 2.0)
        topo.set_link("b", "a", 9.0, 2.0)
        assert topo.link_key("a", "b") == ("a", "b")
        assert topo.link_key("b", "a") == ("b", "a")


# -- WanManager unit level --------------------------------------------------------------


def _task(task_id, mb, arrival=0.0, deadline=1000.0):
    task_type = TaskType("T", 0, data_in=mb)
    return Task(
        id=task_id, task_type=task_type, arrival_time=arrival, deadline=deadline
    )


def _drain(manager, events):
    """Run the WAN event loop to empty; return {task_id: delivery_time}."""
    deliveries = {}
    transfers = {}
    while events:
        event = events.pop()
        if event.type is EventType.LINK_TRANSFER:
            WanManager.on_link_event(event, event.time)
        elif event.type is EventType.TASK_ARRIVAL:
            deliveries[event.payload.id] = event.time
            transfer = transfers.get(event.payload.id)
            if transfer is not None:
                manager.on_delivered(transfer, event.time)
    return deliveries


class TestFifoQueueing:
    def _submit_pair(self, topo, names, srcs):
        events = EventQueue()
        manager = WanManager(topo, events, names)
        transfers = {}
        for i, src in enumerate(srcs):
            task = _task(i, 4.0)
            transfers[i] = manager.submit(task, src, names.index("cloud"), 0.0)
        deliveries = {}
        while events:
            event = events.pop()
            if event.type is EventType.LINK_TRANSFER:
                WanManager.on_link_event(event, event.time)
            else:
                deliveries[event.payload.id] = event.time
                manager.on_delivered(transfers[event.payload.id], event.time)
        return deliveries

    def test_shared_fifo_link_strictly_slower_than_separate_links(self):
        # The acceptance regression: two concurrent transfers on ONE fifo
        # link must finish strictly later than the same transfers on
        # separate links.
        shared = InterClusterTopology()
        shared.set_link("edge", "cloud", 1.0, 1.0, contention="fifo")
        shared_times = self._submit_pair(shared, ["edge", "cloud"], [0, 0])

        separate = InterClusterTopology()
        separate.set_link("edge_a", "cloud", 1.0, 1.0, contention="fifo")
        separate.set_link("edge_b", "cloud", 1.0, 1.0, contention="fifo")
        names = ["edge_a", "edge_b", "cloud"]
        separate_times = self._submit_pair(separate, names, [0, 1])

        # Separate pipes: both serialise concurrently, delivered at 5.0.
        assert separate_times == {0: 5.0, 1: 5.0}
        # One shared pipe: the second transfer waits for the first.
        assert shared_times == {0: 5.0, 1: 9.0}
        assert max(shared_times.values()) > max(separate_times.values())

    def test_fifo_serialises_in_arrival_order(self):
        topo = InterClusterTopology()
        topo.set_link("edge", "cloud", 1.0, 1.0, contention="fifo")
        events = EventQueue()
        manager = WanManager(topo, events, ["edge", "cloud"])
        transfers = {
            0: manager.submit(_task(0, 2.0), 0, 1, 0.0),
            1: manager.submit(_task(1, 2.0), 0, 1, 0.5),
            2: manager.submit(_task(2, 2.0), 0, 1, 0.75),
        }
        deliveries = {}
        while events:
            event = events.pop()
            if event.type is EventType.LINK_TRANSFER:
                WanManager.on_link_event(event, event.time)
            else:
                deliveries[event.payload.id] = event.time
                manager.on_delivered(transfers[event.payload.id], event.time)
        # Serialisations: [0,2], [2,4], [4,6]; latency 1 after each.
        assert deliveries == {0: 3.0, 1: 5.0, 2: 7.0}
        usage = manager.usage(end_time=7.0)["edge<->cloud"]
        assert usage.delivered == 3
        assert usage.busy_time == 6.0
        # Waits: task1 queued 0.5→2.0, task2 queued 0.75→4.0.
        assert usage.wait_time == pytest.approx(1.5 + 3.25)


class TestProcessorSharing:
    def test_ps_shares_bandwidth_equally(self):
        topo = InterClusterTopology()
        topo.set_link("edge", "cloud", 1.0, 1.0, contention="ps")
        events = EventQueue()
        manager = WanManager(topo, events, ["edge", "cloud"])
        transfers = {
            0: manager.submit(_task(0, 4.0), 0, 1, 0.0),
            1: manager.submit(_task(1, 4.0), 0, 1, 0.0),
        }
        deliveries = {}
        while events:
            event = events.pop()
            if event.type is EventType.LINK_TRANSFER:
                WanManager.on_link_event(event, event.time)
            else:
                deliveries[event.payload.id] = event.time
                manager.on_delivered(transfers[event.payload.id], event.time)
        # Both crawl at 0.5 MB/s: serialised at 8, delivered at 9.
        assert deliveries == {0: 9.0, 1: 9.0}

    def test_fifo_vs_ps_delay_ordering(self):
        # Same offered load: FIFO gets the first transfer out strictly
        # earlier; the clearing time of the whole batch is identical
        # (both disciplines are work-conserving).
        def run(contention):
            topo = InterClusterTopology()
            topo.set_link("edge", "cloud", 1.0, 1.0, contention=contention)
            events = EventQueue()
            manager = WanManager(topo, events, ["edge", "cloud"])
            transfers = {
                i: manager.submit(_task(i, 4.0), 0, 1, 0.0) for i in range(2)
            }
            deliveries = {}
            while events:
                event = events.pop()
                if event.type is EventType.LINK_TRANSFER:
                    WanManager.on_link_event(event, event.time)
                else:
                    deliveries[event.payload.id] = event.time
                    manager.on_delivered(
                        transfers[event.payload.id], event.time
                    )
            return deliveries

        fifo, ps = run("fifo"), run("ps")
        assert min(fifo.values()) < min(ps.values())
        assert max(fifo.values()) == max(ps.values())

    def test_late_joiner_slows_the_flow_in_progress(self):
        topo = InterClusterTopology()
        topo.set_link("edge", "cloud", 0.0, 1.0, contention="ps")
        events = EventQueue()
        manager = WanManager(topo, events, ["edge", "cloud"])
        transfers = {0: manager.submit(_task(0, 4.0), 0, 1, 0.0)}
        # At t=2 the first flow has 2 MB left; a 2 MB joiner halves its rate.
        # Pop nothing before 2.0; manually submit the joiner mid-flight.
        assert events.next_time() == 4.0
        transfers[1] = manager.submit(_task(1, 2.0), 0, 1, 2.0)
        deliveries = {}
        while events:
            event = events.pop()
            if event.type is EventType.LINK_TRANSFER:
                WanManager.on_link_event(event, event.time)
            else:
                deliveries[event.payload.id] = event.time
                manager.on_delivered(transfers[event.payload.id], event.time)
        # From t=2 both drain at 0.5 MB/s; both finish their 2 MB at t=6.
        assert deliveries == {0: 6.0, 1: 6.0}


class TestCancellation:
    def _run_scenario(self, tasks, contention, *, latency=1.0, bw=1.0, mb=4.0):
        """Edge tasks forced across one contended link to a fast cloud."""
        task_types = [TaskType("T1", 0, data_in=mb)]
        eet = EETMatrix(
            np.array([[50.0, 2.0]]), task_types, ["SLOW", "FAST"]
        )
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
        topo.set_link(
            "edge", "cloud", latency, bw,
            contention=contention, energy_per_mb=2.0,
        )
        federation = FederationSpec(
            clusters=[
                ClusterSpec(name="edge", machine_counts={"SLOW": 1}, weight=1.0),
                ClusterSpec(name="cloud", machine_counts={"FAST": 4}, weight=0.0),
            ],
            # Route everything to the cloud, unconditionally: the gateway
            # must not dodge the congested link we are trying to exercise.
            gateway="RANDOM_SPLIT",
            gateway_params={"weights": [0.0, 1.0]},
            topology=topo,
        )
        return Scenario(
            eet=eet,
            machine_counts={"SLOW": 1, "FAST": 4},
            scheduler="MECT",
            workload=workload,
            federation=federation,
            seed=3,
            name="wan-cancel-test",
        ).run()

    def test_queued_transfer_cancelled_frees_its_slot(self):
        # t0 serialises 0→4. t1 queues behind it but dies at t=2 while
        # QUEUED. t2 (arrived 0.5) then serialises 4→8 — NOT 8→12: the
        # cancelled transfer must not hold its reserved link time.
        result = self._run_scenario(
            [(0.0, 100.0), (0.0, 2.0), (0.5, 100.0)], "fifo"
        )
        summary = result.summary
        assert summary.total_tasks == 3
        assert summary.completed == 2
        assert summary.cancelled == 1
        # t2 delivered at 9 (not 13), executes 2s on the idle FAST machine.
        assert summary.makespan == 11.0
        usage = result.wan_links["edge<->cloud"]
        assert usage.delivered == 2
        assert usage.abandoned == 1
        # The queued cancel crossed zero payload: energy for exactly 8 MB.
        assert usage.transfer_energy == 16.0
        assert usage.mb_abandoned == 4.0

    def test_serving_transfer_cancelled_frees_the_pipe_immediately(self):
        # t0 serialises from 0 but dies mid-service at t=2; t1 (queued)
        # then serialises 2→6 and is delivered at 7.
        result = self._run_scenario([(0.0, 2.0), (0.0, 100.0)], "fifo")
        summary = result.summary
        assert summary.completed == 1
        assert summary.cancelled == 1
        assert summary.makespan == 9.0  # delivered 7.0 + 2.0 execution
        usage = result.wan_links["edge<->cloud"]
        # Half the payload crossed before the cancel: 2 MB * 2 J/MB, plus
        # the full 4 MB * 2 J/MB of the survivor.
        assert usage.transfer_energy == 12.0
        assert usage.busy_time == 6.0

    def test_ps_member_cancelled_speeds_up_the_rest(self):
        # Both share 1 MB/s from t=0 (0.5 each). t1 dies at t=2 having
        # crossed 1 MB; t0 then drains its remaining 3 MB at full rate,
        # finishing serialisation at t=5, delivered 6, executed by 8.
        result = self._run_scenario([(0.0, 100.0), (0.0, 2.0)], "ps")
        summary = result.summary
        assert summary.completed == 1
        assert summary.cancelled == 1
        assert summary.makespan == 8.0
        usage = result.wan_links["edge<->cloud"]
        assert usage.transfer_energy == (4.0 + 1.0) * 2.0
        assert usage.mb_delivered == 4.0
        assert usage.mb_abandoned == 4.0

    def test_conservation_under_contended_cancellations(self):
        # A pile of overlapping transfers with deadlines straddling every
        # phase (queued / serving / propagating / delivered).
        tasks = [(0.1 * i, 0.1 * i + 2.0 + 1.5 * (i % 4)) for i in range(24)]
        for contention in ("fifo", "ps"):
            result = self._run_scenario(tasks, contention)
            summary = result.summary
            assert summary.total_tasks == 24
            assert (
                summary.completed + summary.cancelled + summary.missed == 24
            )
            usage = result.wan_links["edge<->cloud"]
            assert usage.delivered + usage.abandoned == 24

    def test_cancel_during_propagation_keeps_payload_charged(self):
        # Serialisation 0→4 done; latency 3 means delivery at 7, but the
        # deadline fires at 5 (mid-propagation). The payload crossed, so
        # the full transfer energy stays charged and the pipe was free
        # from t=4.
        result = self._run_scenario(
            [(0.0, 5.0)], "fifo", latency=3.0
        )
        summary = result.summary
        assert summary.cancelled == 1
        usage = result.wan_links["edge<->cloud"]
        assert usage.abandoned == 1
        assert usage.transfer_energy == 8.0
        assert usage.mb_delivered == 4.0


class TestEnergyWithoutTraffic:
    def test_idle_power_accrues_on_untouched_links(self):
        # An idle WAN port burns joules whether or not traffic arrives:
        # energy-bearing links must appear in the report (with pure idle
        # energy) even when no offload ever touched them.
        topo = InterClusterTopology()
        topo.set_link("a", "b", 0.1, 8.0, contention="fifo", idle_watts=2.0)
        topo.set_link("a", "c", 0.1, 8.0, contention="fifo", idle_watts=2.0)
        events = EventQueue()
        manager = WanManager(topo, events, ["a", "b", "c"])
        transfer = manager.submit(_task(0, 4.0), 0, 1, 0.0)  # a->b only
        _drain(manager, events)
        usage = manager.usage(end_time=100.0)
        assert set(usage) == {"a<->b", "a<->c"}
        untouched = usage["a<->c"]
        assert untouched.delivered == 0
        assert untouched.idle_energy == pytest.approx(200.0)
        assert transfer is not None

    def test_default_link_energy_materialises_every_pair(self):
        topo = InterClusterTopology(default=Link(0.0, 0.0, idle_watts=1.0))
        events = EventQueue()
        manager = WanManager(topo, events, ["a", "b", "c"])
        usage = manager.usage(end_time=10.0)
        assert set(usage) == {"a<->b", "a<->c", "b<->c"}
        assert all(u.idle_energy == pytest.approx(10.0) for u in usage.values())

    def test_plain_explicit_link_overriding_energy_default_stays_lazy(self):
        # An explicit plain link overrides an energy-bearing default; it
        # must not get an all-zero report row from the default's loop.
        topo = InterClusterTopology(
            links={("a", "b"): Link(0.1, 10.0)},
            default=Link(0.05, 50.0, energy_per_mb=1.0),
        )
        manager = WanManager(topo, EventQueue(), ["a", "b", "c"])
        assert set(manager.usage(end_time=10.0)) == {"a<->c", "b<->c"}

    def test_zero_delay_offloads_count_in_link_stats(self):
        # delay == 0 (trivial link): the offload is instant, but the WAN
        # table must still agree with the routing matrix about traffic.
        topo = InterClusterTopology()  # default zero link, no energy
        events = EventQueue()
        manager = WanManager(topo, events, ["a", "b"])
        assert manager.submit(_task(0, 4.0), 0, 1, 0.0) is None
        usage = manager.usage(end_time=10.0)
        assert usage["a<->b"].delivered == 1
        assert usage["a<->b"].mb_delivered == 4.0


class TestGatewaySignals:
    def test_queue_depth_and_estimated_delay_reflect_backlog(self):
        topo = InterClusterTopology()
        topo.set_link("edge", "cloud", 1.0, 1.0, contention="fifo")
        events = EventQueue()
        manager = WanManager(topo, events, ["edge", "cloud"])
        assert manager.queue_depth(0, 1) == 0
        assert manager.estimated_delay(0, 1, 4.0, 0.0) == 5.0
        manager.submit(_task(0, 4.0), 0, 1, 0.0)
        manager.submit(_task(1, 4.0), 0, 1, 0.0)
        assert manager.queue_depth(0, 1) == 2
        # Head has 4s service left + 4 MB queued + own 4 MB + latency.
        assert manager.estimated_delay(0, 1, 4.0, 0.0) == 13.0
        # Symmetric: the reverse direction sees the same pipe.
        assert manager.queue_depth(1, 0) == 2

    def test_queries_never_open_a_channel(self):
        # A channel is a row of the link report: asking about a pair no
        # traffic has touched must answer from the static topology.
        topo = InterClusterTopology()
        topo.set_link("edge", "cloud", 1.0, 1.0, contention="fifo")
        manager = WanManager(topo, EventQueue(), ["edge", "cloud"])
        assert manager.queue_depth(1, 0) == 0
        assert manager.estimated_delay(1, 0, 4.0, 0.0) == 5.0
        assert manager.usage(end_time=1.0) == {}

    def test_congestion_aware_gateway_avoids_the_backed_up_link(self):
        # Two remote clusters with identical machines; cloud_a's link is
        # backed up, cloud_b's is clear. EET_AWARE_REMOTE must route the
        # next task to cloud_b once cloud_a's estimated WAN delay exceeds
        # the alternative.
        task_types = [TaskType("T1", 0, data_in=4.0)]
        eet = EETMatrix(
            np.array([[50.0, 2.0, 2.0]]),
            task_types,
            ["SLOW", "FAST_A", "FAST_B"],
        )
        tasks = [
            Task(id=i, task_type=task_types[0], arrival_time=0.0,
                 deadline=1000.0)
            for i in range(4)
        ]
        workload = Workload(task_types=task_types, tasks=tasks)
        topo = InterClusterTopology()
        topo.set_link("edge", "cloud_a", 0.5, 1.0, contention="fifo")
        topo.set_link("edge", "cloud_b", 0.5, 1.0, contention="fifo")
        federation = FederationSpec(
            clusters=[
                ClusterSpec(name="edge", machine_counts={"SLOW": 1}, weight=1.0),
                ClusterSpec(name="cloud_a", machine_counts={"FAST_A": 4}, weight=0.0),
                ClusterSpec(name="cloud_b", machine_counts={"FAST_B": 4}, weight=0.0),
            ],
            gateway="EET_AWARE_REMOTE",
            topology=topo,
        )
        result = Scenario(
            eet=eet,
            machine_counts={"SLOW": 1, "FAST_A": 4, "FAST_B": 4},
            scheduler="MECT",
            workload=workload,
            federation=federation,
            seed=3,
            name="congestion-aware-test",
        ).run()
        arrivals = result.arrivals_by_cluster()
        # The overlap model would dump all four on one cloud; the
        # congestion-aware estimate spreads them across both links.
        assert arrivals["cloud_a"] > 0
        assert arrivals["cloud_b"] > 0
        assert result.summary.completed == 4


class TestPhases:
    def test_phase_progression_fifo(self):
        topo = InterClusterTopology()
        topo.set_link("edge", "cloud", 1.0, 1.0, contention="fifo")
        events = EventQueue()
        manager = WanManager(topo, events, ["edge", "cloud"])
        first = manager.submit(_task(0, 4.0), 0, 1, 0.0)
        second = manager.submit(_task(1, 4.0), 0, 1, 0.0)
        assert first.phase is TransferPhase.SERVING
        assert second.phase is TransferPhase.QUEUED
        event = events.pop()
        assert event.type is EventType.LINK_TRANSFER
        WanManager.on_link_event(event, event.time)
        assert first.phase is TransferPhase.PROPAGATING
        assert second.phase is TransferPhase.SERVING
