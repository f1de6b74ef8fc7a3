"""Mid-queue task migration: the periodic rebalance pass of a federation.

The gateway (:mod:`repro.scheduling.federation`) routes each task exactly
once, at arrival. Under bursty load that single decision goes stale: a
flash crowd saturates one cluster's batch queue while a remote cluster
drains, and the queued tasks — already routed — cannot move. The
:class:`Rebalancer` closes that gap: driven by periodic ``TASK_MIGRATION``
ticks on the federation's event heap, it compares cluster pressures, asks a
registered eviction policy (:mod:`repro.scheduling.federation.eviction`)
which queued tasks to move, and ships them through the same
:class:`~repro.net.wan.WanManager` path ordinary offloads use — so
migrations and offloads **contend for the same link channels** and pay the
same per-megabyte energy.

Lifecycle of one migrated task::

    IN_BATCH_QUEUE ──evict──▶ CREATED (in WAN: queued / serving / propagating)
         (source)                    │                        │
                                     │ deadline fires         │ delivered
                                     ▼                        ▼
                                CANCELLED              IN_BATCH_QUEUE
                          (exact link accounting)       (destination)

Conservation: eviction re-homes the task *before* it travels
(``task.cluster`` flips to the destination and the shards' ``routed``
counters move with it), so wherever the deadline fires the task is
recorded exactly once, by exactly one shard — the federation-wide
``recorded == len(workload)`` invariant is untouched. A finished run
always satisfies ``attempted == delivered + cancelled_in_flight``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.errors import SimulationStateError
from ..core.events import EventType, make_event
from ..metrics.rollup import MigrationStats, migration_stats, routing_table
from ..scheduling.federation.eviction import MigrationContext, create_eviction

if TYPE_CHECKING:  # pragma: no cover
    from ..net.wan import WanTransfer
    from ..tasks.task import Task
    from .shard import ClusterShard
    from .simulator import FederatedSimulator
    from .spec import MigrationSpec

__all__ = ["Rebalancer"]


class Rebalancer:
    """Periodic mid-queue migration across the shards of one federation.

    Owned by :class:`~repro.federation.simulator.FederatedSimulator` when
    its spec carries a :class:`~repro.federation.spec.MigrationSpec`; holds
    the eviction policy instance, the per-pair migration matrix, and the
    conservation/energy counters the result reports.
    """

    def __init__(
        self, federation: "FederatedSimulator", spec: "MigrationSpec"
    ) -> None:
        self.federation = federation
        self.spec = spec
        self.policy = create_eviction(spec.policy, **spec.policy_params)
        self.policy.reset()
        n = len(federation.shards)
        self._matrix = [[0] * n for _ in range(n)]
        self.delivered = 0
        self.cancelled_in_flight = 0
        #: Task id → payload joules charged for that task's migration hops
        #: (full link cost, added as each migration finishes its crossing).
        self._wan_energy_by_task: dict[int, float] = {}
        #: Sources currently shedding load (between the watermarks of the
        #: hysteresis trigger); empty while no watermarks are configured.
        self._shedding: set[int] = set()

    # -- the tick loop ------------------------------------------------------------------

    def schedule_first_tick(self) -> None:
        """Arm the rebalance clock (called once, at federation build)."""
        self._push_tick(self.spec.interval)

    def _push_tick(self, when: float) -> None:
        self.federation.events.push(make_event(when, EventType.TASK_MIGRATION))

    def on_tick(self, now: float) -> None:
        """One rebalance pass; re-arms itself while the run has work left.

        The re-arm mirrors the failure process: once every workload task is
        terminal no further tick is scheduled, so the event stream stays
        bounded and the federation terminates. At most one trailing tick
        can fire after the last task resolves.
        """
        if self.federation.all_tasks_terminal():
            return
        self._rebalance(now)
        self._push_tick(now + self.spec.interval)

    # -- one pass -----------------------------------------------------------------------

    def _rebalance(self, now: float) -> None:
        spec = self.spec
        shards = self.federation.shards
        if len(shards) < 2:
            return
        for source in shards:
            if len(source.batch_queue) < spec.min_queue:
                # A source too shallow to rebalance has, for hysteresis
                # purposes, drained: it must re-cross the high watermark
                # before it sheds again.
                self._shedding.discard(source.index)
                continue
            destination = self._drain_target(source)
            if destination is None:
                continue
            gap = source.pressure() - destination.pressure()
            if not self._should_fire(source.index, gap):
                continue
            candidates = [
                task
                for task in source.batch_queue.snapshot()
                if task.deadline > now
            ]
            if not candidates:
                continue
            ctx = MigrationContext(
                now=now,
                source=source,
                destination=destination,
                candidates=candidates,
                limit=spec.batch_max,
                wan=self.federation.wan,
            )
            for task in self.policy.select(ctx)[: spec.batch_max]:
                self._migrate(task, source, destination, now)

    def _should_fire(self, source: int, gap: float) -> bool:
        """The rebalance trigger: plain threshold, or watermark hysteresis.

        Without watermarks the pass fires whenever the pressure gap reaches
        ``pressure_gap`` — the original fixed-threshold behaviour, event
        stream untouched. With watermarks the source is a two-state machine:
        it *starts* shedding only when the gap crosses ``high_watermark``
        and keeps shedding until the gap falls to ``low_watermark``. The
        dead band in between never starts a shed, so a source whose
        pressure oscillates inside it cannot thrash tasks back and forth.
        """
        spec = self.spec
        high, low = spec.high_watermark, spec.low_watermark
        if high is None or low is None:
            return gap >= spec.pressure_gap
        if source in self._shedding:
            if gap <= low:
                self._shedding.discard(source)
                return False
            return True
        if gap >= high:
            self._shedding.add(source)
            return True
        return False

    def _drain_target(self, source: "ClusterShard") -> "ClusterShard | None":
        """Least-pressure remote shard (ties → lowest index)."""
        best: "ClusterShard | None" = None
        best_pressure = float("inf")
        for shard in self.federation.shards:
            if shard.index == source.index:
                continue
            pressure = shard.pressure()
            if pressure < best_pressure:
                best, best_pressure = shard, pressure
        return best

    # -- one migration ------------------------------------------------------------------

    def _migrate(
        self,
        task: "Task",
        source: "ClusterShard",
        destination: "ClusterShard",
        now: float,
    ) -> None:
        federation = self.federation
        if not source.batch_queue.remove(task):  # pragma: no cover - defensive
            raise SimulationStateError(
                f"migration selected task {task.id} which is not in "
                f"cluster {source.name}'s batch queue"
            )
        task.evict_for_migration(now)
        task.cluster = destination.index
        # Re-home the outstanding-task accounting with the task, so shard
        # pressure (and the gateway's load signals) see the move instantly.
        source.routed -= 1
        destination.routed += 1
        self._matrix[source.index][destination.index] += 1
        transfer = federation.wan.submit(
            task,
            source.index,
            destination.index,
            now,
            kind=EventType.TASK_MIGRATION,
        )
        if transfer is None:
            # Zero-delay link: the crossing is instantaneous and already
            # accounted; deliver straight into the destination queue.
            link = federation.topology.link_between(
                source.name, destination.name
            )
            self._record_delivered(
                task, link.transfer_energy(task.task_type.data_in)
            )
            destination._on_arrival(task)
        else:
            federation.track_transfer(transfer)

    # -- delivery / cancellation accounting ---------------------------------------------

    def record_delivered(self, task: "Task", transfer: "WanTransfer") -> None:
        """A migration's WAN delivery event fired at its destination."""
        self._record_delivered(
            task, transfer.channel.link.transfer_energy(transfer.megabytes)
        )

    def _record_delivered(self, task: "Task", wan_energy: float) -> None:
        self.delivered += 1
        if wan_energy:
            self._wan_energy_by_task[task.id] = (
                self._wan_energy_by_task.get(task.id, 0.0) + wan_energy
            )

    def record_cancelled(self, task: "Task") -> None:
        """A migrating task's deadline fired while it was still in the WAN."""
        self.cancelled_in_flight += 1

    # -- reporting ----------------------------------------------------------------------

    @property
    def matrix_counts(self) -> list[list[int]]:
        """Live source × destination counters (shared reference, read-only)."""
        return self._matrix

    def matrix(self) -> dict[str, dict[str, int]]:
        """Name-keyed source × destination migration counters."""
        return routing_table(self.federation.spec.names, self._matrix)

    def stats(self, tasks: "list[Task]") -> MigrationStats:
        """The run's migration conservation + energy account."""
        return migration_stats(
            tasks,
            attempted=sum(map(sum, self._matrix)),
            delivered=self.delivered,
            cancelled_in_flight=self.cancelled_in_flight,
            wan_energy_by_task=self._wan_energy_by_task,
        )
