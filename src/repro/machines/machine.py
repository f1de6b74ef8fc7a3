"""Machine runtime state: queue, running task, readiness and energy.

A machine executes its FIFO queue sequentially (§3: "Tasks are executed on the
assigned machine in a sequential manner"). The scheduler plans against a
machine's ready time plus :meth:`eet_for`, the standard quantities of the
MCT/Min-Min heuristic family:

    ready time       = now + remaining(running) + Σ EET(queued)
    completion time  = ready time + eet_for(candidate)

A machine keeps the two terms in its :class:`ClusterState` row
(``finish_at`` and ``queued_work``); ``Cluster.ready_times`` evaluates the
ready time of every machine at once, +inf for a machine that is down.

With deterministic execution these are exact; with an execution-noise model
they are the *expected* values — which is precisely what the "Expected
Execution Time" matrix semantics call for.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from ..core.errors import EETError, SimulationStateError
from ..core.fields import integer
from ..memory.allocation import fits_in_memory, memory_in_use as _memory_in_use
from ..tasks.task import Task
from .eet import EETMatrix
from .machine_type import MachineType
from .power import EnergyMeter

if TYPE_CHECKING:  # pragma: no cover
    from ..core.events import Event

__all__ = ["ClusterState", "Machine", "UNBOUNDED"]

#: Sentinel machine-queue capacity meaning "no limit" (immediate-mode default).
UNBOUNDED = math.inf


class ClusterState:
    """The one store of every machine's planning scalars, one row per machine.

    Each machine transition (enqueue, start, finish, drop, fail, repair)
    writes the fields it changes at the machine's own row; ``Machine`` reads
    them back from there. The two fields the vectorised ``ready_times``
    sweep reads are NumPy arrays (the scalar argmin loops take one
    ``tolist()`` per decision); the others are plain lists.

    - ``finish_at``: the running task's finish time, 0.0 while idle.
    - ``queued_work``: Σ EET of the queued tasks, summed incrementally.
    - ``slots``: free queue slots as floats, 0.0 while down, inf when
      unbounded; transitions move it by ±1 and ``Machine.recount_slots``
      resets it. It is the only free-slot count admission reads.
    - ``up`` and ``n_down``: powered-on flags and the count of ``False``.
    """

    __slots__ = ("finish_at", "queued_work", "slots", "up", "n_down")

    def __init__(self, n: int) -> None:
        self.finish_at = np.zeros(n)
        self.queued_work = np.zeros(n)
        self.slots = [UNBOUNDED] * n
        self.up = [True] * n
        self.n_down = 0


class Machine:
    """One physical machine instance of a given machine type.

    ``queue`` is the FIFO of tasks waiting on the machine (the "machine
    queue" boxes of Fig. 1). ``queue_capacity`` bounds it; it counts queued
    tasks only, so the running task, which sits inside the machine as in
    the paper's GUI, occupies no slot.
    """

    def __init__(
        self,
        machine_id: int,
        machine_type: MachineType,
        eet: EETMatrix,
        *,
        queue_capacity: float = UNBOUNDED,
        name: str | None = None,
    ) -> None:
        self.id = machine_id
        self.machine_type = machine_type
        self.name = name if name is not None else f"{machine_type.name}-{machine_id}"
        self._eet = eet
        # Per-machine EET column resolved once: task type name -> seconds as a
        # plain Python float (eet_for is on the per-decision hot path). A
        # machine type with no EET column raises EETError here.
        self._eet_by_type_name = dict(
            zip(eet.task_type_names, eet.column(machine_type.name).tolist())
        )
        self.queue: deque[Task] = deque()
        self.queue_capacity = integer(
            queue_capacity, "queue_capacity", unbounded=True
        )
        self.running: Task | None = None
        self.completion_event: "Event | None" = None
        self.energy = EnergyMeter(machine_type.power)
        self.completed_count = 0
        self.missed_count = 0
        self.failure_count = 0
        # Planning scalars live in a ClusterState row: a one-row state of
        # its own until a Cluster moves the machine into the shared one.
        self._state = ClusterState(1)
        self._index = 0
        self.recount_slots()

    # -- EET access -------------------------------------------------------------

    def eet_for(self, task: Task) -> float:
        """Expected execution time of *task* on this machine."""
        try:
            return self._eet_by_type_name[task.task_type.name]
        except KeyError:
            raise EETError(
                f"unknown task type {task.task_type.name!r}; defined: "
                f"{list(self._eet_by_type_name)}"
            ) from None

    # -- planning state ------------------------------------------------------------

    def bind_state(self, state: ClusterState, index: int) -> None:
        """Move this machine's planning scalars to the fresh row *index* of *state*.

        The cluster keeps one :class:`ClusterState` for all its machines, so
        ``Cluster.ready_times`` is one vectorised expression instead of a
        Python loop over machines per scheduling decision.
        """
        old, j = self._state, self._index
        state.finish_at[index] = old.finish_at[j]
        state.queued_work[index] = old.queued_work[j]
        if not old.up[j]:
            state.up[index] = False
            state.n_down += 1
        self._state, self._index = state, index
        self.recount_slots()

    def recount_slots(self) -> None:
        """Set the free-slot count to ``queue_capacity - len(queue)`` (0.0 while down)."""
        state, i = self._state, self._index
        state.slots[i] = (
            float(self.queue_capacity - len(self.queue)) if state.up[i] else 0.0
        )

    # -- planning quantities ------------------------------------------------------

    @property
    def up(self) -> bool:
        """Powered-on flag (failure-injection extension)."""
        return self._state.up[self._index]

    @property
    def run_finishes_at(self) -> float | None:
        """Finish time of the running task (None while idle)."""
        if self.running is None:
            return None
        return float(self._state.finish_at[self._index])

    @property
    def is_idle(self) -> bool:
        return self.running is None

    # -- execution lifecycle --------------------------------------------------------

    def enqueue(self, task: Task, now: float) -> None:
        """Accept an assigned task into the local queue."""
        state, i = self._state, self._index
        if not state.up[i]:
            raise SimulationStateError(
                f"machine {self.name} is down; cannot enqueue task {task.id}"
            )
        if state.slots[i] <= 0:
            raise SimulationStateError(
                f"machine {self.name}: queue saturated (capacity "
                f"{self.queue_capacity}); cannot enqueue task {task.id}"
            )
        task.assign(self, now)
        self.queue.append(task)
        state.queued_work[i] += self.eet_for(task)
        state.slots[i] -= 1

    def can_accept(self, task: Task | None = None) -> bool:
        """Queue has a free slot (and memory headroom, when constrained).

        Capacity counts queued tasks only; the running task occupies no slot.
        When the machine type declares a memory capacity and *task* is given,
        admission also requires the task's footprint to fit next to the
        queued + running residents (memory extension, see
        :mod:`repro.memory.allocation`).
        """
        if self._state.slots[self._index] <= 0:  # full, or down (0.0 slots)
            return False
        if task is not None and self.machine_type.memory_capacity > 0:
            if not fits_in_memory(self, task):
                return False
        return True

    def memory_in_use(self) -> float:
        """MB of memory held by queued + running tasks."""
        return _memory_in_use(self)

    def start_next(self, now: float, runtime: float | None = None) -> Task | None:
        """If idle and the queue head is startable, start it.

        A head task still in transit (``available_at`` in the future, network
        extension) blocks the queue until its delivery event fires. Returns
        the started task (runtime stored on it) or None. The caller schedules
        the completion event for ``run_finishes_at``.
        """
        state, i = self._state, self._index
        queue = self.queue
        if not state.up[i] or self.running is not None or not queue:
            return None
        head = queue[0]
        if head.available_at is not None and head.available_at > now:
            return None
        # Close the idle interval that just ended.
        self.energy.advance(now, busy=False)
        task = queue.popleft()
        eet = self.eet_for(task)
        # An emptied queue holds exactly no work: the running sum would keep
        # a float residue, and the completion scans need queued_work >= 0.
        state.queued_work[i] = state.queued_work[i] - eet if queue else 0.0
        state.slots[i] += 1
        actual = runtime if runtime is not None else eet
        if actual < 0:
            raise SimulationStateError(f"negative runtime {actual} for task {task.id}")
        task.start(now)
        task.execution_time = actual
        self.running = task
        state.finish_at[i] = now + actual
        return task

    def finish_running(self, now: float) -> Task:
        """Complete the running task at *now* (its completion event fired)."""
        task = self._detach_running(now)
        task.complete(now)
        started = task.start_time if task.start_time is not None else now
        task.energy = self.energy.profile.energy_for(
            task.task_type.name, now - started
        )
        self.completed_count += 1
        return task

    def drop_running(self, now: float) -> Task:
        """Drop the running task (deadline miss mid-execution); machine frees."""
        task = self._detach_running(now)
        # Energy already spent on the partial run is attributed to the task.
        started = task.start_time if task.start_time is not None else now
        task.energy = self.energy.profile.energy_for(
            task.task_type.name, now - started
        )
        self.missed_count += 1
        return task

    def drop_queued(self, task: Task) -> bool:
        """Remove a queued task (deadline miss while waiting). True if found."""
        try:
            self.queue.remove(task)
        except ValueError:
            return False
        state, i = self._state, self._index
        eet = self.eet_for(task)
        state.queued_work[i] = state.queued_work[i] - eet if self.queue else 0.0
        state.slots[i] += 1
        self.missed_count += 1
        return True

    def _detach_running(self, now: float) -> Task:
        if self.running is None:
            raise SimulationStateError(f"machine {self.name} is not running anything")
        task = self.running
        self.energy.advance(now, busy=True, task_type_name=task.task_type.name)
        self.running = None
        self.completion_event = None
        self._state.finish_at[self._index] = 0.0
        return task

    def fail(self, now: float) -> list[Task]:
        """Crash the machine: evict the running task and the whole queue.

        Closes the current power interval (busy or idle), switches to the
        powered-off state, and returns the evicted tasks in execution order
        (running task first). The caller requeues or retires them and must
        cancel the pending completion event.
        """
        if not self.up:
            raise SimulationStateError(f"machine {self.name} is already down")
        evicted: list[Task] = []
        if self.running is not None:
            self.energy.advance(
                now, busy=True, task_type_name=self.running.task_type.name
            )
            evicted.append(self.running)
            self.running = None
            self.completion_event = None
        else:
            self.energy.advance(now, busy=False)
        evicted.extend(self.queue)
        self.queue.clear()
        self.failure_count += 1
        state, i = self._state, self._index
        state.finish_at[i] = 0.0
        state.queued_work[i] = 0.0
        state.slots[i] = 0.0
        state.up[i] = False
        state.n_down += 1
        return evicted

    def repair(self, now: float) -> None:
        """Bring the machine back up; downtime is metered as powered-off."""
        if self.up:
            raise SimulationStateError(f"machine {self.name} is not down")
        self.energy.advance_off(now)
        state, i = self._state, self._index
        state.up[i] = True
        state.n_down -= 1
        self.recount_slots()

    def finalize_energy(self, now: float) -> None:
        """Close the trailing power interval at end of simulation."""
        if not self.up:
            self.energy.advance_off(now)
        elif self.running is not None:
            self.energy.advance(
                now, busy=True, task_type_name=self.running.task_type.name
            )
            # Re-open bookkeeping so a subsequent finish still integrates from now.
            # (finalize is only called when the simulation truly ends)
        else:
            self.energy.advance(now, busy=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "idle" if self.is_idle else f"running task {self.running.id}"
        return f"Machine({self.name}, {state}, queued={len(self.queue)})"
