"""The E2C simulation engine (Fig. 1): one event loop, one cluster core.

Orchestrates the full pipeline: workload → batch queue → scheduler → machine
queues → machines, with cancelled/dropped bookkeeping, energy metering, and
the four reports at the end. The engine splits in two:

* :class:`EventLoop` — the clock, the future-event list, the observers and
  the Play/Increment buttons (``run``/``step``). The federated engine
  (:class:`repro.federation.simulator.FederatedSimulator`) runs on the same
  loop.
* :class:`ClusterCore` — one cluster's batch queue, scheduling policy,
  metrics collector and event handlers, on a clock and heap it is handed.
  It has no loop: :class:`Simulator` pairs it with its own, and each
  federated :class:`~repro.federation.shard.ClusterShard` with the
  federation's.

The workload enters the heap one task at a time: at construction the
:class:`ArrivalFeed` pushes only the first arrival, and each arrival, as it
fires, pushes its own deadline and the next task's arrival. So the heap
never holds the whole workload, yet it pops events in the order a heap
filled with every arrival and deadline up front would.

Event handling per step:

* ``TASK_ARRIVAL`` — the feed schedules the task's deadline and the next
  arrival; the task enters the batch queue; a scheduling pass runs.
* ``TASK_COMPLETION`` — the machine finishes its running task (on time by
  construction: the completion event is cancelled if the deadline fires
  first); the machine starts its next queued task; a scheduling pass runs
  (batch mode sees the freed queue slot).
* ``TASK_DEADLINE`` — fate depends on where the task is: batch queue ⇒
  CANCELLED; machine queue ⇒ MISSED (queued); executing ⇒ MISSED (running;
  the pending completion event is cancelled and the machine moves on).
* ``NETWORK_DELIVERY`` — (communication extension) the task's payload has
  reached its machine; the machine may start it now.

A scheduling pass sweeps expired tasks out of the batch queue, snapshots the
remaining pending tasks, invokes the policy, and applies its assignments —
including starting idle machines and scheduling their completion events.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Generic, Sequence, TypeVar

import numpy as np

from ..machines.cluster import Cluster
from ..machines.execution import DeterministicExecution, ExecutionTimeModel
from ..machines.failures import FailureModel
from ..machines.machine import Machine
from ..machines.machine_queue import UNBOUNDED
from ..metrics.collector import MetricsCollector, SummaryMetrics
from ..metrics.energy import EnergyBreakdown, energy_breakdown
from ..metrics.records import RecordsSource
from ..metrics.reports import ReportBundle
from ..net.transfer import transfer_delay
from ..queues.batch_queue import BatchQueue
from ..scheduling.base import Assignment, Scheduler, SchedulingMode
from ..scheduling.context import SchedulingContext
from ..scheduling.overhead import SchedulingOverhead
from ..tasks.task import DropStage, Task, TaskStatus
from ..tasks.workload import Workload
from .clock import SimulationClock
from .errors import ConfigurationError, SchedulingError, SimulationStateError
from .event_queue import EventQueue
from .events import Event, EventType, reserve_seqs
from .rng import make_rng

__all__ = [
    "ArrivalFeed",
    "ClusterCore",
    "EventLoop",
    "Simulator",
    "SimulationResult",
]

Observer = Callable[[Any, Event], None]
R = TypeVar("R")

# Event-type members bound once at module scope: member access on an Enum
# class goes through a descriptor (~10x a plain global load on CPython 3.11),
# and the dispatch loop reads several members per event.
_ARRIVAL = EventType.TASK_ARRIVAL
_COMPLETION = EventType.TASK_COMPLETION
_DEADLINE = EventType.TASK_DEADLINE
_DELIVERY = EventType.NETWORK_DELIVERY
_FAILURE = EventType.MACHINE_FAILURE
_REPAIR = EventType.MACHINE_REPAIR
_CREATED = TaskStatus.CREATED
_IN_BATCH_QUEUE = TaskStatus.IN_BATCH_QUEUE
_ASSIGNED = TaskStatus.ASSIGNED
_RUNNING = TaskStatus.RUNNING
_INF = float("inf")


@dataclass(frozen=True)
class SimulationResult:
    """Everything a finished run produced.

    ``task_records`` / ``machine_records`` are built lazily from ``records``
    on first access (and cached): most consumers — benchmarks, campaign
    sweeps, regression gates — only read the summary, and the per-task row
    dicts are the single most expensive part of result assembly.
    """

    summary: SummaryMetrics
    energy: EnergyBreakdown
    end_time: float
    scheduler_name: str
    events_processed: int
    records: RecordsSource = field(repr=False, compare=False)

    @cached_property
    def task_records(self) -> list[dict]:
        """One dict per task — the Task report rows (lazy, cached)."""
        return self.records.task_rows()

    @cached_property
    def machine_records(self) -> list[dict]:
        """One dict per machine — the Machine report rows (lazy, cached)."""
        return self.records.machine_rows()

    @property
    def reports(self) -> ReportBundle:
        """The four E2C reports (Full / Task / Machine / Summary)."""
        return ReportBundle(
            self.task_records, self.machine_records, self.summary.as_dict()
        )

    @property
    def completion_rate(self) -> float:
        return self.summary.completion_rate


class ArrivalFeed:
    """The workload's arrival process: each arrival schedules the next.

    Only the next arrival waits in the future-event list. When it fires,
    :meth:`advance` pushes that task's deadline (if ``drop_on_deadline`` and
    the deadline is finite) and the following task's arrival. Their seqs
    come from one block reserved at construction and are handed out in the
    order a heap filled up front would have numbered them (each task's
    arrival, then its deadline), so every ``(time, priority, seq)`` key,
    and with it the pop order, is the one of that up-front population.

    ``tasks`` must be in workload order (arrival time, then id), which is
    the order :class:`~repro.tasks.workload.Workload` keeps.
    """

    __slots__ = ("_tasks", "_events", "_drop", "_next", "_seq")

    def __init__(
        self, tasks: Sequence[Task], events: EventQueue, drop_on_deadline: bool
    ) -> None:
        self._tasks = tasks
        self._events = events
        self._drop = drop_on_deadline
        n = len(tasks)
        if drop_on_deadline:
            n += sum(1 for task in tasks if task.deadline != _INF)
        self._seq = reserve_seqs(n)  # seq of the next event the feed pushes
        self._next = 0  # index of the task whose arrival is pending
        if tasks:
            first = tasks[0]
            events.push(Event(first.arrival_time, _ARRIVAL, first, self._seq))
            self._seq += 1

    @property
    def remaining(self) -> int:
        """Tasks whose arrival has not fired yet."""
        return len(self._tasks) - self._next

    def advance(self) -> None:
        """The pending arrival fired: push its deadline and the next arrival."""
        tasks, i, seq = self._tasks, self._next, self._seq
        push = self._events.push
        task = tasks[i]
        if self._drop and task.deadline != _INF:
            push(Event(task.deadline, _DEADLINE, task, seq))
            seq += 1
        i += 1
        if i < len(tasks):
            task = tasks[i]
            push(Event(task.arrival_time, _ARRIVAL, task, seq))
            seq += 1
        self._next, self._seq = i, seq


class EventLoop(Generic[R]):
    """The discrete-event loop both engines run on.

    Owns the clock, the future-event list, the observers and the counters.
    A subclass supplies ``_dispatch(event)`` (handle one popped event),
    ``_finish()`` (called once, when the heap drains: finalize and store
    ``self._result``) and ``_build_result()``.
    """

    def __init__(self, observers: Sequence[Observer] = ()) -> None:
        self.clock = SimulationClock()
        self.events = EventQueue()
        self.observers = list(observers)
        self._events_processed = 0
        self._finished = False
        self._result: R | None = None

    @property
    def now(self) -> float:
        return self.clock._now  # single attribute hop; .now is a property

    @property
    def is_finished(self) -> bool:
        return self._finished

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def next_event_time(self) -> float | None:
        """Timestamp of the next pending event (None when drained)."""
        return self.events.next_time()

    def step(self) -> Event | None:
        """Process exactly one event (the GUI's Increment button).

        Returns the processed event, or None when the simulation is over.
        """
        if self._finished:
            return None
        if not self.events:
            self._finish()
            return None
        event = self.events.pop()
        self.clock.advance_to(event.time)
        self._dispatch(event)
        self._events_processed += 1
        if self.observers:
            for observer in self.observers:
                observer(self, event)
        if not self.events:
            self._finish()
        return event

    def run(self, until: float | None = None) -> R:
        """Run to completion (or to simulated time *until*) and return results."""
        if until is None:
            if self.observers:
                while not self._finished:
                    self.step()
            else:
                # Hot path: the step() body inlined with the event-queue pop
                # unrolled — direct heap access saves a call layer per event,
                # and the heap's ordering guarantee stands in for the clock's
                # monotonicity check. Semantics identical to step().
                events = self.events
                heap = events._heap
                cancelled = events._cancelled
                clock = self.clock
                dispatch = self._dispatch
                heappop = heapq.heappop
                processed = 0
                while heap:
                    event = heappop(heap)
                    if cancelled and event.seq in cancelled:
                        cancelled.discard(event.seq)
                        continue
                    clock._now = event.time
                    dispatch(event)
                    processed += 1
                self._events_processed += processed
                if not self._finished:
                    self._finish()
            assert self._result is not None
            return self._result
        while not self._finished:
            next_time = self.events.next_time()
            if next_time is None:
                break
            if next_time > until:
                self.clock.advance_to(until)
                break
            self.step()
        return self._build_result()

    def result(self) -> R:
        """Result of a finished run."""
        if self._result is None:
            raise SimulationStateError(
                "simulation has not finished; call run() first"
            )
        return self._result

    # -- supplied by the engine ----------------------------------------------------

    def _dispatch(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _finish(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _build_result(self) -> R:  # pragma: no cover - abstract
        raise NotImplementedError


class ClusterCore:
    """One cluster's scheduling engine, driven by someone else's loop.

    Holds the cluster, its batch queue, local policy, metrics collector and
    per-type statistics, and handles the per-cluster events (arrival,
    completion, deadline, delivery, failure, repair). The clock, the event
    heap and the RNG are handed in; every event it schedules is stamped
    with ``shard_id`` (``None`` for a standalone run) so a federation loop
    can route it back here. A subclass supplies ``_all_tasks_terminal()``,
    which keeps the failure process alive while work remains.
    """

    def __init__(
        self,
        cluster: Cluster,
        scheduler: Scheduler,
        *,
        clock: SimulationClock,
        events: EventQueue,
        rng: np.random.Generator,
        shard_id: int | None = None,
        drop_on_deadline: bool = True,
        execution_model: ExecutionTimeModel | None = None,
        queue_capacity: float | None = None,
        enable_network: bool = False,
        failure_model: FailureModel | None = None,
        scheduling_overhead: SchedulingOverhead | None = None,
    ) -> None:
        self.cluster = cluster
        self.scheduler = scheduler
        self.clock = clock
        self.events = events
        self.rng = rng
        self._shard_id = shard_id
        self.drop_on_deadline = drop_on_deadline
        self.execution_model = execution_model or DeterministicExecution()
        # Deterministic runtimes (the default) need no sampling call per start.
        self._deterministic_execution = (
            type(self.execution_model) is DeterministicExecution
        )
        self.enable_network = enable_network
        self.failure_model = failure_model
        self.scheduling_overhead = (
            scheduling_overhead
            if scheduling_overhead is not None
            else SchedulingOverhead()
        )

        if queue_capacity is not None:
            if (
                scheduler.mode is SchedulingMode.IMMEDIATE
                and queue_capacity != UNBOUNDED
            ):
                raise ConfigurationError(
                    "immediate policies require unbounded machine queues "
                    "(Fig. 3: 'limited to infinite for immediate policies')"
                )
            cluster.set_queue_capacity(queue_capacity)
        elif scheduler.mode is SchedulingMode.IMMEDIATE:
            cluster.set_queue_capacity(UNBOUNDED)

        self.batch_queue = BatchQueue()
        self.collector = MetricsCollector()
        self.type_stats = self.collector.type_stats
        self.scheduler.reset()

        self._overhead_free = self.scheduling_overhead.is_free
        # Immediate policies with zero decision overhead and no network can
        # map an arriving task on the spot whenever the batch queue is empty,
        # skipping the queue push / sweep / snapshot / Assignment machinery —
        # the dominant arrival shape for every immediate preset.
        self._immediate_fast = (
            scheduler.mode is SchedulingMode.IMMEDIATE
            and self._overhead_free
            and not enable_network
        )
        # One context object reused across passes (policies treat it as a
        # read-only view; only now/pending vary between passes).
        self._ctx = SchedulingContext(
            now=0.0,
            pending=(),
            cluster=self.cluster,
            type_stats=self.type_stats,
            rng=self.rng,
        )

    def start_failure_process(self) -> None:
        """Schedule the first failure event for every machine of the cluster."""
        if self.failure_model is None:
            return
        for machine in self.cluster:
            self._schedule_failure(machine)

    def finalize(self, now: float) -> None:
        """Close the trailing energy interval of every machine."""
        for machine in self.cluster:
            machine.finalize_energy(now)

    # -- event dispatch ----------------------------------------------------------------

    def _dispatch(self, event: Event) -> None:
        etype = event.type
        if etype is _ARRIVAL:
            self._on_arrival(event.payload)
        elif etype is _COMPLETION:
            self._on_completion(event.payload)
        elif etype is _DEADLINE:
            self._on_deadline(event.payload)
        elif etype is _DELIVERY:
            self._on_delivery(event.payload)
        elif etype is _FAILURE:
            self._on_failure(event.payload)
        elif etype is _REPAIR:
            self._on_repair(event.payload)
        else:  # pragma: no cover - defensive
            raise SimulationStateError(f"unhandled event type {event.type}")

    def _all_tasks_terminal(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _on_arrival(self, task: Task) -> None:
        if self._immediate_fast and self.batch_queue.is_empty:
            # Same decisions, records, and RNG consumption as the general
            # path below — merely without materialising the single-task
            # batch pass (push, sweep, snapshot, Assignment, remove).
            now = self.clock._now
            if self.drop_on_deadline and task.deadline <= now:
                task.cancel(now)
                self.collector.record_terminal(task)
                return
            ctx = self._ctx
            ctx.now = now
            ctx.pending = (task,)
            machine = self.scheduler.choose_machine(task, ctx)
            if machine is None:  # pragma: no cover - defensive
                raise SchedulingError(
                    f"{self.scheduler.name}: immediate policy returned no "
                    f"machine for task {task.id}"
                )
            if machine.can_accept(task):
                machine.enqueue(task, now)
                self._try_start(machine)
            else:
                # Admission refused: buffer it exactly as the general path
                # would have left it, awaiting the next scheduling pass.
                self.batch_queue.push(task)
            return
        self.batch_queue.push(task)
        self._scheduling_pass()

    def _on_completion(self, payload: tuple[Machine, Task]) -> None:
        machine, task = payload
        if machine.running is not task:  # pragma: no cover - defensive
            raise SimulationStateError(
                f"completion event for task {task.id} but machine "
                f"{machine.name} is running "
                f"{machine.running.id if machine.running else None}"
            )
        finished = machine.finish_running(self.clock._now)
        self.collector.record_terminal(finished)
        self._try_start(machine)
        self._scheduling_pass()

    def _on_deadline(self, task: Task) -> None:
        if task.status.is_terminal:
            return  # completed exactly at (or before) the deadline
        now = self.clock._now
        if task.status in (_CREATED, _IN_BATCH_QUEUE):
            self.batch_queue.remove(task)
            task.cancel(now)
            self.collector.record_terminal(task)
            return
        machine = task.machine
        if machine is None:  # pragma: no cover - defensive
            raise SimulationStateError(
                f"task {task.id} is {task.status.name} but has no machine"
            )
        if task.status is _ASSIGNED:
            in_transit = (
                task.available_at is not None and task.available_at > now
            )
            if not machine.drop_queued(task):  # pragma: no cover - defensive
                raise SimulationStateError(
                    f"task {task.id} not found in machine {machine.name} queue"
                )
            task.miss(
                now,
                DropStage.IN_TRANSIT if in_transit else DropStage.MACHINE_QUEUE,
            )
        elif task.status is _RUNNING:
            if machine.completion_event is not None:
                self.events.cancel(machine.completion_event)
            machine.drop_running(now)
            task.miss(now, DropStage.EXECUTING)
            self._try_start(machine)
        else:  # pragma: no cover - defensive
            raise SimulationStateError(
                f"deadline fired for task {task.id} in state {task.status.name}"
            )
        self.collector.record_terminal(task)
        self._scheduling_pass()

    def _on_delivery(self, payload: tuple[Machine, Task]) -> None:
        machine, task = payload
        if task.status is _ASSIGNED:
            self._try_start(machine)

    # -- failure injection ---------------------------------------------------------

    def _schedule_failure(self, machine: Machine) -> None:
        assert self.failure_model is not None
        uptime = self.failure_model.sample_uptime(machine, self.rng)
        self.events.push(
            Event(
                self.clock._now + uptime,
                EventType.MACHINE_FAILURE,
                machine,
                cluster=self._shard_id,
            )
        )

    def _on_failure(self, machine: Machine) -> None:
        assert self.failure_model is not None
        if not machine.up:  # pragma: no cover - defensive
            return
        if machine.completion_event is not None:
            self.events.cancel(machine.completion_event)
        now = self.clock._now
        for task in machine.fail(now):
            task.requeue(now)
            self.batch_queue.readmit(task)
        downtime = self.failure_model.sample_downtime(machine, self.rng)
        self.events.push(
            Event(
                now + downtime,
                EventType.MACHINE_REPAIR,
                machine,
                cluster=self._shard_id,
            )
        )
        # Evicted tasks may be remappable onto surviving machines right now.
        self._scheduling_pass()

    def _on_repair(self, machine: Machine) -> None:
        assert self.failure_model is not None
        machine.repair(self.clock._now)
        # Keep the failure process alive only while there is work left; this
        # bounds the event stream so simulations terminate.
        if not self._all_tasks_terminal():
            self._schedule_failure(machine)
        self._scheduling_pass()

    # -- scheduling ---------------------------------------------------------------------

    def _scheduling_pass(self) -> None:
        if self.batch_queue.is_empty:
            return  # nothing to sweep, nothing to map
        now = self.clock._now
        if self.drop_on_deadline:
            for task in self.batch_queue.sweep_expired(now):
                self.collector.record_terminal(task)
        pending = self.batch_queue.snapshot()
        if not pending:
            return
        ctx = self._ctx
        ctx.now = now
        ctx.pending = pending
        assignments = self.scheduler.schedule(ctx)
        if self._overhead_free:
            decision_delay = 0.0
        else:
            decision_delay = self.scheduling_overhead.pass_delay(
                len(pending), len(self.cluster)
            )
        self._apply(assignments, decision_delay=decision_delay)

    def _apply(
        self,
        assignments: Sequence[Assignment],
        *,
        decision_delay: float = 0.0,
    ) -> None:
        now = self.clock._now
        network = self.enable_network
        for assignment in assignments:
            task, machine = assignment.task, assignment.machine
            if task.status is not _IN_BATCH_QUEUE:
                raise SchedulingError(
                    f"{self.scheduler.name}: assignment for task {task.id} "
                    f"in state {task.status.name}"
                )
            if not machine.can_accept(task):
                # Bounded queue or memory admission refused the mapping; the
                # task stays in the batch queue for the next pass.
                continue
            if not self.batch_queue.remove(task):  # pragma: no cover - defensive
                raise SchedulingError(
                    f"{self.scheduler.name}: task {task.id} not in batch queue"
                )
            if network:
                delay = (
                    transfer_delay(task.task_type, machine.machine_type)
                    + decision_delay
                )
            else:
                delay = decision_delay
            if delay > 0:
                task.available_at = now + delay
            machine.enqueue(task, now)
            if delay > 0:
                self.events.push(
                    Event(
                        now + delay,
                        EventType.NETWORK_DELIVERY,
                        (machine, task),
                        cluster=self._shard_id,
                    )
                )
            self._try_start(machine)

    def _try_start(self, machine: Machine) -> None:
        """Start the machine's next task if possible; schedule its completion."""
        if machine.running is not None or not machine.queue:
            return  # busy or nothing queued: the common _apply case
        head = machine.queue.peek()
        runtime = None
        if head is not None:
            expected = machine.eet_for(head)
            if self._deterministic_execution:
                runtime = expected
            else:
                runtime = self.execution_model.sample(head, expected, self.rng)
        started = machine.start_next(self.clock._now, runtime)
        if started is not None:
            event = self.events.push(
                Event(
                    machine.run_finishes_at,
                    EventType.TASK_COMPLETION,
                    (machine, started),
                    cluster=self._shard_id,
                )
            )
            machine.completion_event = event


class Simulator(ClusterCore, EventLoop[SimulationResult]):
    """Discrete-event simulator for one scenario run: one cluster, own loop."""

    def __init__(
        self,
        cluster: Cluster,
        workload: Workload,
        scheduler: Scheduler,
        *,
        seed: int | None | np.random.Generator = None,
        drop_on_deadline: bool = True,
        execution_model: ExecutionTimeModel | None = None,
        queue_capacity: float | None = None,
        enable_network: bool = False,
        failure_model: FailureModel | None = None,
        scheduling_overhead: SchedulingOverhead | None = None,
        observers: Sequence[Observer] = (),
    ) -> None:
        workload.validate_against_eet(cluster.eet)
        EventLoop.__init__(self, observers)
        ClusterCore.__init__(
            self,
            cluster,
            scheduler,
            clock=self.clock,
            events=self.events,
            rng=make_rng(seed),
            drop_on_deadline=drop_on_deadline,
            execution_model=execution_model,
            queue_capacity=queue_capacity,
            enable_network=enable_network,
            failure_model=failure_model,
            scheduling_overhead=scheduling_overhead,
        )
        self.workload = workload
        self._arrivals = ArrivalFeed(
            workload.tasks, self.events, self.drop_on_deadline
        )
        if len(workload) > 0:
            self.start_failure_process()

    def _on_arrival(self, task: Task) -> None:
        self._arrivals.advance()
        ClusterCore._on_arrival(self, task)

    def _all_tasks_terminal(self) -> bool:
        return self.collector.recorded >= len(self.workload)

    # -- termination -----------------------------------------------------------------------

    def _finish(self) -> None:
        self._finished = True
        self.finalize(self.now)
        self._result = self._build_result()
        expected = len(self.workload)
        if self.collector.recorded != expected:
            raise SimulationStateError(
                f"conservation violated: {self.collector.recorded} terminal "
                f"tasks out of {expected}"
            )

    def _build_result(self) -> SimulationResult:
        summary = self.collector.summary(self.cluster, end_time=self.now)
        return SimulationResult(
            summary=summary,
            energy=energy_breakdown(self.cluster),
            end_time=self.now,
            scheduler_name=self.scheduler.name,
            events_processed=self._events_processed,
            records=RecordsSource([(None, self.collector, self.cluster)]),
        )

    # -- renderer-facing state ------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Live outcome counters (the cancelled/missed boxes of the GUI).

        O(1): reads the collector's incrementally-maintained counters
        instead of scanning every recorded task per rendered frame.
        """
        return self.collector.counts()

    def remaining_arrivals(self) -> int:
        """Workload tasks that have not arrived yet (O(1))."""
        return self._arrivals.remaining
