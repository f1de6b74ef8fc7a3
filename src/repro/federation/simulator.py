"""The federated simulation kernel: N cluster shards, one heap, one clock.

``FederatedSimulator`` hosts multiple :class:`~repro.federation.shard.ClusterShard`
cluster cores under a single future-event list and simulation clock: the
:class:`~repro.core.simulator.EventLoop` the single-cluster engine runs on,
with this module's gateway and WAN routing as its dispatch. Arriving tasks
hit the **gateway layer** first: a registered gateway policy
(:mod:`repro.scheduling.federation`) picks the destination cluster; offloaded
tasks pay the WAN transfer delay of the federation's
:class:`~repro.net.topology.InterClusterTopology` before entering the
destination's batch queue, where the cluster's *local* policy maps them to
machines exactly as in a single-cluster run.

Event flow per task::

    arrival ──▶ gateway policy ──▶ [WAN transfer] ──▶ batch queue ──▶ local
    (origin      (which cluster?)    (offloads only)    (destination    policy
     cluster)                                            shard)         ──▶ machine

Routing uses the ``cluster`` id stamped on every event: shard-scheduled
events (completions, deliveries, failures, repairs) carry their shard index
and go straight back to the owning shard's handlers; federation-level events
(gateway arrivals, deadlines) carry ``None`` and are handled here; the
:class:`~repro.core.simulator.ArrivalFeed` pushes them one arrival ahead.

One engine serves flat meshes and hierarchical trees alike. An offload
follows :meth:`FederatedSimulator.route`: ``(origin, destination)`` on a
mesh, the lowest-common-ancestor node path of the
:class:`~repro.federation.hierarchy.FederationTree` on a tree. Every hop is
one :class:`~repro.net.wan.WanTransfer`, crossed store-and-forward: a relay
delivery carries the remaining node path as its ``Event.cluster`` (a
tuple), and the final hop carries the destination leaf as a plain ``int``.
A mesh route is a single hop, so its events carry exactly the flat form.

When the spec carries a :class:`~repro.federation.spec.MigrationSpec`, a
:class:`~repro.federation.migration.Rebalancer` additionally re-homes tasks
*mid-queue*: periodic ``TASK_MIGRATION`` ticks (``cluster=None``) evict
tasks from saturated shards' batch queues and ship them over the same WAN
channels offloads use; the resulting deliveries are ``TASK_MIGRATION``
events carrying the destination shard id.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Sequence

import numpy as np

from ..core.errors import (
    ConfigurationError,
    SchedulingError,
    SimulationStateError,
)
from ..core.events import Event, EventType
from ..core.rng import derive_seed, make_rng, spawn
from ..core.simulator import ArrivalFeed, EventLoop, Observer
from ..machines.cluster import Cluster
from ..machines.eet import EETMatrix
from ..machines.execution import ExecutionTimeModel
from ..machines.failures import FailureModel
from ..machines.machine import Machine
from ..machines.machine_queue import UNBOUNDED
from ..machines.power import PowerProfile
from ..metrics.collector import SummaryMetrics
from ..metrics.records import RecordsSource
from ..metrics.rollup import (
    MigrationStats,
    TreeRollup,
    global_energy,
    global_summary,
    offload_energy_split,
    routing_table,
)
from ..net.wan import WanManager, WanTransfer
from ..scheduling.federation.base import GatewayContext
from ..scheduling.federation.registry import create_gateway
from ..scheduling.overhead import SchedulingOverhead
from ..scheduling.registry import create_scheduler
from ..tasks.task import Task, TaskStatus
from ..tasks.workload import Workload
from .hierarchy import FederationTree, HierarchyView
from .migration import Rebalancer
from .result import FederatedSimulationResult
from .shard import ClusterShard
from .spec import FederationSpec

__all__ = ["FederatedSimulator"]

# Module-bound enum members: the routing loop tests several per event, and
# Enum class attribute access costs ~10x a global load on CPython 3.11.
_ARRIVAL = EventType.TASK_ARRIVAL
_COMPLETION = EventType.TASK_COMPLETION
_DEADLINE = EventType.TASK_DEADLINE
_LINK_TRANSFER = EventType.LINK_TRANSFER
_MIGRATION = EventType.TASK_MIGRATION
_CROSS_TRAFFIC = EventType.CROSS_TRAFFIC
_CREATED = TaskStatus.CREATED


class FederatedSimulator(EventLoop[FederatedSimulationResult]):
    """Discrete-event simulator for one federated (multi-cluster) run."""

    def __init__(
        self,
        spec: FederationSpec,
        eet: EETMatrix,
        workload: Workload,
        *,
        seed: int | None | np.random.Generator = None,
        drop_on_deadline: bool = True,
        execution_model: ExecutionTimeModel | None = None,
        queue_capacity: float = UNBOUNDED,
        enable_network: bool = False,
        failure_model: FailureModel | None = None,
        scheduling_overhead: SchedulingOverhead | None = None,
        power_profiles: dict[str, PowerProfile] | None = None,
        memory_capacities: dict[str, float] | None = None,
        network: dict[str, tuple[float, float]] | None = None,
        default_scheduler: str = "MECT",
        default_scheduler_params: dict[str, Any] | None = None,
        observers: Sequence[Observer] = (),
    ) -> None:
        workload.validate_against_eet(eet)
        super().__init__(observers)
        self.spec = spec
        self.workload = workload
        self.drop_on_deadline = drop_on_deadline
        self.topology = spec.topology

        # Independent substreams: origin assignment, gateway draws, one per
        # shard — so adding a draw to one component never perturbs another,
        # and sweeping the gateway policy never changes where tasks arrive.
        wan_seed: int | None
        if isinstance(seed, np.random.Generator):
            # Spawn keys are sequential, so asking for one extra child
            # (the WAN cross-traffic root) leaves the first n+2 substreams
            # exactly where pre-cross-traffic builds drew them.
            children = spawn(seed, len(spec.clusters) + 3)
            origins_rng, self._gateway_rng = children[0], children[1]
            shard_rngs = children[2:-1]
            wan_seed = int(children[-1].integers(0, 2**31 - 1))
        else:
            origins_rng = make_rng(derive_seed(seed, "federation", "origins"))
            self._gateway_rng = make_rng(
                derive_seed(seed, "federation", "gateway")
            )
            shard_rngs = [
                make_rng(derive_seed(seed, "federation", "shard", i))
                for i in range(len(spec.clusters))
            ]
            wan_seed = derive_seed(seed, "federation", "crosstraffic")

        # A tree spec routes over its uplinks, so a gateway must understand
        # the tree to price a destination.
        tree = FederationTree(spec) if spec.children is not None else None
        self._tree = tree
        self.gateway = create_gateway(spec.gateway, **spec.gateway_params)
        if tree is not None and not self.gateway.supports_hierarchy:
            raise ConfigurationError(
                f"gateway {self.gateway.name!r} does not support hierarchical "
                "federations: it compares clusters over direct links the "
                "tree does not have. Use a tree-capable policy "
                "(e.g. TREE_PRESSURE) or flatten the federation."
            )
        self.gateway.reset()

        self.shards: list[ClusterShard] = []
        for i, cspec in enumerate(spec.clusters):
            # The cluster is built with its queue capacity; the shard only
            # lifts it to unbounded under an immediate local policy.
            cluster = Cluster.build(
                eet,
                cspec.machine_counts,
                power_profiles=power_profiles or {},
                queue_capacity=(
                    queue_capacity
                    if cspec.queue_capacity is None
                    else cspec.queue_capacity
                ),
                memory_capacities=memory_capacities or {},
                network=network or {},
            )
            # Qualify machine names so federation-wide reports stay unique
            # (two shards may both have a "CPU-0").
            for machine in cluster:
                machine.name = f"{cspec.name}:{machine.name}"
            scheduler = (
                create_scheduler(cspec.scheduler, **cspec.scheduler_params)
                if cspec.scheduler is not None
                else create_scheduler(
                    default_scheduler, **(default_scheduler_params or {})
                )
            )
            self.shards.append(
                ClusterShard(
                    index=i,
                    name=cspec.name,
                    cluster=cluster,
                    scheduler=scheduler,
                    federation=self,
                    clock=self.clock,
                    events=self.events,
                    rng=shard_rngs[i],
                    weight=cspec.weight,
                    drop_on_deadline=drop_on_deadline,
                    execution_model=execution_model,
                    enable_network=enable_network,
                    failure_model=failure_model,
                    scheduling_overhead=scheduling_overhead,
                )
            )

        local_names = {shard.scheduler.name for shard in self.shards}
        self.scheduler_name = (
            local_names.pop() if len(local_names) == 1 else "mixed"
        )

        n = len(self.shards)
        self._routing = [[0] * n for _ in range(n)]
        self._offloaded = 0
        # Per-destination WAN conservation counters for gateway offloads:
        # attempted == delivered + cancelled in flight once the run drains
        # (checked in _finish). Migrations keep their own account.
        self._inflight_mb: list[float] = [0.0] * n
        self._wan_attempted: list[int] = [0] * n
        self._wan_delivered: list[int] = [0] * n
        self._wan_cancelled: list[int] = [0] * n
        # WAN link channels: contention disciplines, per-link energy, and
        # the cancellation handles for tasks still crossing the WAN. A tree
        # works over its hop topology (uplink edges over the full node
        # namespace): WAN routes, gateway context and energy accounting all
        # see tree edges.
        if tree is not None:
            self.topology = tree.hop_topology
        self._wan = WanManager(
            self.topology,
            self.events,
            spec.names if tree is None else list(tree.node_names),
            seed=wan_seed,
        )
        self._transfers: dict[int, WanTransfer] = {}
        # Mid-queue migration: a periodic rebalance pass sharing the WAN
        # channels above. None when the spec does not ask for it — the
        # event stream is then bit-identical to a migration-free build.
        self._rebalancer = (
            Rebalancer(self, spec.migration)
            if spec.migration is not None
            else None
        )
        self._ctx = GatewayContext(
            now=0.0,
            task=None,  # type: ignore[arg-type]  (set before every decision)
            origin=0,
            shards=self.shards,
            topology=self.topology,
            rng=self._gateway_rng,
            wan=self._wan,
            # Live reference: the gateway sees every migration the moment
            # the rebalancer books it.
            migrations=(
                None
                if self._rebalancer is None
                else self._rebalancer.matrix_counts
            ),
            hierarchy=(
                None
                if tree is None
                else HierarchyView(tree=tree, inflight_mb=self._inflight_mb)
            ),
        )
        if self.gateway.wants_feedback:
            # Every terminal task funnels through exactly one shard
            # collector (completions, deadline misses, in-WAN
            # cancellations), so hooking record_terminal there pays the
            # learning gateway for precisely the tasks it routed.
            def _feed_back(task: Task) -> None:
                self.gateway.record_outcome(task, self.clock._now)

            for shard in self.shards:
                shard.collector.on_terminal = _feed_back

        # Gateway arrivals and global deadlines (cluster None) come from the
        # feed, one arrival ahead of the clock.
        self._arrivals = ArrivalFeed(
            workload.tasks, self.events, drop_on_deadline
        )
        # Origin assignment: one vectorised draw, a pure function of the
        # federation seed — identical across gateway/local-policy sweeps.
        if len(workload) > 0:
            weights = np.asarray(spec.arrival_weights(), dtype=float)
            origins = origins_rng.choice(n, size=len(workload), p=weights / weights.sum())
            for task, origin in zip(workload, origins.tolist()):
                task.origin_cluster = origin
            for shard in self.shards:
                shard.start_failure_process()
            if self._rebalancer is not None:
                self._rebalancer.schedule_first_tick()

    # -- federation-facing surface ------------------------------------------------

    @property
    def recorded(self) -> int:
        """Terminal tasks across all shards."""
        return sum(shard.collector.recorded for shard in self.shards)

    @property
    def wan(self) -> WanManager:
        """Live WAN link state (shared by gateway offloads and migrations)."""
        return self._wan

    @property
    def rebalancer(self) -> Rebalancer | None:
        """The mid-queue migration engine, when the spec enables one."""
        return self._rebalancer

    @property
    def tree(self) -> FederationTree | None:
        """The compiled federation tree (``None`` on a flat mesh)."""
        return self._tree

    def route(self, origin: int, destination: int) -> tuple[int, ...]:
        """Node path of an offload, endpoints included.

        ``(origin, destination)`` on a mesh, where every cluster pair has
        its own link; the lowest-common-ancestor path on a tree.
        """
        if self._tree is None:
            return (origin, destination)
        return self._tree.route(origin, destination)

    def track_transfer(self, transfer: WanTransfer) -> None:
        """Keep the cancellation handle for a task crossing the WAN."""
        self._transfers[transfer.task.id] = transfer

    def all_tasks_terminal(self) -> bool:
        """True once every workload task reached a terminal state."""
        return self.recorded >= len(self.workload)

    # -- event routing ---------------------------------------------------------------

    def _dispatch(self, event: Event) -> None:
        # Only relay ARRIVAL events carry a tuple address (the ARRIVAL
        # branch re-reads it); every other shard-owned event carries its
        # int shard index.
        cluster_id: int | None = event.cluster  # type: ignore[assignment]
        etype = event.type
        if cluster_id is None:
            # Federation-level event: a task arriving at the gateway, or a
            # deadline firing wherever the task currently is.
            if etype is _ARRIVAL:
                self._on_gateway_arrival(event.payload)
            elif etype is _DEADLINE:
                self._on_deadline(event.payload)
            elif etype is _LINK_TRANSFER:
                # A WAN serialisation milestone: the owning link channel
                # frees the pipe, delivers, and starts whatever is queued.
                WanManager.on_link_event(event, self.clock._now)
            elif etype is _MIGRATION:
                # The rebalance clock: run one mid-queue migration pass.
                if self._rebalancer is not None:
                    self._rebalancer.on_tick(self.clock._now)
            elif etype is _CROSS_TRAFFIC:
                # A WAN link entered its next background-utilisation epoch.
                WanManager.on_cross_traffic(event, self.clock._now)
            else:  # pragma: no cover - defensive
                raise SimulationStateError(
                    f"federation-level event of type {event.type} has no owner"
                )
        elif etype is _COMPLETION:
            # The most common shard-owned event: skip the shard's own
            # dispatch chain and call the handler directly.
            self.shards[cluster_id]._on_completion(event.payload)
        elif etype is _ARRIVAL:
            # A WAN hop completed: a tuple address is the remaining node
            # path of a relay (current node first), an int the final leaf.
            task = event.payload
            transfer = self._transfers.pop(task.id, None)
            if transfer is not None:
                self._wan.on_delivered(transfer, self.clock._now)
            path = event.cluster
            if type(path) is tuple:
                self._forward(task, path)
            else:
                self._deliver(task, cluster_id)
        elif etype is _MIGRATION:
            # A migrated task survived the WAN: re-enqueue at its new home.
            task = event.payload
            transfer = self._transfers.pop(task.id, None)
            if transfer is None:  # pragma: no cover - defensive
                raise SimulationStateError(
                    f"migration delivery for task {task.id} without a "
                    "tracked WAN transfer"
                )
            self._wan.on_delivered(transfer, self.clock._now)
            assert self._rebalancer is not None
            self._rebalancer.record_delivered(task, transfer)
            self.shards[cluster_id]._on_arrival(task)
        else:
            self.shards[cluster_id]._dispatch(event)

    def _forward(self, task: Task, route: tuple[int, ...]) -> None:
        """Ship a task along ``route`` (``route[0]`` = node it is at now).

        Each hop is one WAN transfer. Intermediate hops stamp the remaining
        node path on their delivery event; the final hop stamps the
        destination leaf id as a plain ``int``. Zero-delay hops return no
        transfer handle and are crossed immediately within this call.
        """
        now = self.clock._now
        last = len(route) - 1
        for i in range(1, last + 1):
            dst = route[i]
            transfer = self._wan.submit(
                task, route[i - 1], dst, now, tag=dst if i == last else route[i:]
            )
            if transfer is not None:
                self._transfers[task.id] = transfer
                return
        # The whole remaining path crossed instantly.
        self._deliver(task, route[last])

    def _deliver(self, task: Task, leaf: int) -> None:
        """An offloaded task completed its last hop: enqueue it at ``leaf``."""
        self._inflight_mb[leaf] -= task.task_type.data_in
        self._wan_delivered[leaf] += 1
        self.shards[leaf]._on_arrival(task)

    # -- the gateway layer -------------------------------------------------------------

    def _on_gateway_arrival(self, task: Task) -> None:
        self._arrivals.advance()
        origin = task.origin_cluster
        if origin is None:  # pragma: no cover - defensive
            raise SimulationStateError(
                f"task {task.id} reached the gateway without an origin cluster"
            )
        ctx = self._ctx
        ctx.now = self.clock._now
        ctx.task = task
        ctx.origin = origin
        destination = self.gateway.choose_cluster(ctx)
        if type(destination) is not int or not (
            0 <= destination < len(self.shards)
        ):
            destination = self._checked_destination(destination)
        task.cluster = destination
        self._routing[origin][destination] += 1
        shard = self.shards[destination]
        shard.routed += 1
        if destination == origin:
            shard._on_arrival(task)
            return
        self._offloaded += 1
        self._wan_attempted[destination] += 1
        self._inflight_mb[destination] += task.task_type.data_in
        self._forward(task, self.route(origin, destination))

    def _checked_destination(self, answer: object) -> int:
        """Normalise a gateway answer to a shard index, or raise.

        Gateways are user code: anything that is not an integer (per
        ``operator.index``) or falls outside the shard range is a typed
        :class:`SchedulingError` naming the gateway and the answer.
        """
        name = self.gateway.name
        try:
            destination = operator.index(answer)  # type: ignore[arg-type]
        except TypeError:
            raise SchedulingError(
                f"{name}: gateway returned {answer!r}, not an integer "
                "cluster index"
            ) from None
        if not 0 <= destination < len(self.shards):
            raise SchedulingError(
                f"{name}: cluster index {answer!r} out of range for "
                f"{len(self.shards)} clusters"
            )
        return destination

    def _on_deadline(self, task: Task) -> None:
        if task.status.is_terminal:
            return  # completed exactly at (or before) the deadline
        cluster_id = task.cluster
        if cluster_id is None:  # pragma: no cover - defensive
            raise SimulationStateError(
                f"deadline fired for task {task.id} before any gateway decision"
            )
        shard = self.shards[cluster_id]
        if task.status is _CREATED:
            # Still crossing the WAN: the transfer is abandoned and the task
            # is cancelled (deadline before any mapping decision), accounted
            # to its destination cluster. The link channel reclaims the pipe
            # for queued transfers and charges only the payload fraction
            # that actually crossed. Offloads and migrations share this
            # path; each bumps its own cancelled-in-flight counter (the
            # per-destination one here, or the rebalancer's) so attempted
            # == delivered + cancelled holds at the end of the run.
            transfer = self._transfers.pop(task.id, None)
            if transfer is not None:
                self._wan.cancel(transfer, self.now)
                if transfer.kind is _ARRIVAL:
                    self._inflight_mb[cluster_id] -= task.task_type.data_in
                    self._wan_cancelled[cluster_id] += 1
                elif self._rebalancer is not None:
                    self._rebalancer.record_cancelled(task)
            task.cancel(self.now)
            shard.collector.record_terminal(task)
            return
        shard._on_deadline(task)

    # -- termination -------------------------------------------------------------------

    def _finish(self) -> None:
        self._finished = True
        now = self.clock._now
        for shard in self.shards:
            shard.finalize(now)
        self._result = self._build_result()
        expected = len(self.workload)
        if self.recorded != expected:
            raise SimulationStateError(
                f"conservation violated: {self.recorded} terminal tasks "
                f"out of {expected} across {len(self.shards)} clusters"
            )
        for i, shard in enumerate(self.shards):
            attempted = self._wan_attempted[i]
            delivered = self._wan_delivered[i]
            cancelled = self._wan_cancelled[i]
            if attempted != delivered + cancelled:
                raise SimulationStateError(
                    f"WAN conservation violated at cluster {shard.name!r}: "
                    f"{attempted} offloads attempted, {delivered} delivered, "
                    f"{cancelled} cancelled in flight"
                )

    def _build_result(self) -> FederatedSimulationResult:
        now = self.now
        names = self.spec.names
        per_cluster: dict[str, SummaryMetrics] = {}
        machines: list[Machine] = []
        for shard in self.shards:
            per_cluster[shard.name] = shard.collector.summary(
                shard.cluster, end_time=now
            )
            machines.extend(shard.cluster.machines)
        summary = global_summary(
            [shard.collector for shard in self.shards], machines, end_time=now
        )
        all_tasks: list[Task] = []
        for shard in self.shards:
            all_tasks.extend(shard.collector.tasks())
        if self._rebalancer is not None:
            migrations = self._rebalancer.matrix()
            mig_stats = self._rebalancer.stats(all_tasks)
        else:
            migrations = {}
            mig_stats = MigrationStats()
        tree = self._tree
        keys: list[str] = names
        energy_fn: Callable[[int, int, float], float] | None = None
        if tree is not None:
            # Routing keys become full leaf paths (globally unambiguous, and
            # they show the level structure), and each offload's energy is
            # priced over every uplink hop of its tree path.
            keys = [path.wire for path in tree.leaf_paths]
            energy_fn = tree.path_transfer_energy
        return FederatedSimulationResult(
            summary=summary,
            per_cluster=per_cluster,
            routing=routing_table(keys, self._routing),
            offloaded=self._offloaded,
            wan_time_total=self._wan.total_time,
            records=RecordsSource(
                [
                    (shard.name, shard.collector, shard.cluster)
                    for shard in self.shards
                ]
            ),
            energy=global_energy(machines),
            end_time=now,
            scheduler_name=self.scheduler_name,
            gateway_name=self.gateway.name,
            events_processed=self._events_processed,
            wan_links=self._wan.usage(now),
            energy_split=offload_energy_split(
                all_tasks, names, self.topology, energy_fn=energy_fn
            ),
            migrations=migrations,
            migration_stats=mig_stats,
            tree=None if tree is None else self.tree_rollup(),
        )

    def _leaf_stats(self, index: int) -> dict[str, float]:
        """The per-cluster numbers the tree rollup aggregates."""
        shard = self.shards[index]
        counts = shard.collector.counts()
        return {
            "routed": float(shard.routed),
            "completed": float(counts["completed"]),
            "missed": float(counts["missed"]),
            "cancelled": float(counts["cancelled"]),
            "wan_attempted": float(self._wan_attempted[index]),
            "wan_delivered": float(self._wan_delivered[index]),
            "wan_cancelled_in_flight": float(self._wan_cancelled[index]),
            "machines": float(len(shard.cluster.machines)),
        }

    def tree_rollup(self) -> TreeRollup:
        """Current per-level rollup (callable mid-run or at the end).

        A flat mesh rolls up as depth 1: every cluster hangs off the root.
        """
        paths: Sequence[Sequence[str]] = (
            [(name,) for name in self.spec.names]
            if self._tree is None
            else self._tree.leaf_paths
        )
        return TreeRollup.from_leaves(
            paths, [self._leaf_stats(i) for i in range(len(self.shards))]
        )

    # -- renderer-facing state -----------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Live outcome counters summed across shards."""
        totals = {"completed": 0, "cancelled": 0, "missed": 0}
        for shard in self.shards:
            for key, value in shard.collector.counts().items():
                totals[key] += value
        return totals

    def remaining_arrivals(self) -> int:
        """Workload tasks that have not reached the gateway yet (O(1))."""
        return self._arrivals.remaining
