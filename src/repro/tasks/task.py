"""Tasks and their lifecycle.

Status machine:

```
CREATED -> IN_BATCH_QUEUE -> ASSIGNED -> RUNNING -> COMPLETED
                 |               |          |
                 v               v          v
             CANCELLED        MISSED     MISSED
```

``CANCELLED`` is the paper's "canceled" box — the deadline passed while the
task was still waiting in the batch queue (before any mapping decision took
effect). ``MISSED`` is the paper's "dropped/missed" box — the deadline passed
after assignment, either while queued on the machine or mid-execution.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.errors import SimulationStateError, WorkloadError
from .task_type import TaskType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machines.machine import Machine

__all__ = ["Task", "TaskStatus", "DropStage"]


class TaskStatus(enum.Enum):
    """Where a task is in its lifecycle."""

    CREATED = "created"
    IN_BATCH_QUEUE = "in_batch_queue"
    ASSIGNED = "assigned"          # sitting in a machine queue
    RUNNING = "running"
    COMPLETED = "completed"
    CANCELLED = "cancelled"        # deadline miss before assignment
    MISSED = "missed"              # deadline miss after assignment

    @property
    def is_terminal(self) -> bool:
        return self._terminal


# Precompute terminality per member: is_terminal sits on the per-event hot
# path (every record_terminal and deadline check), and the tuple-membership
# test costs three enum comparisons per call.
for _status in TaskStatus:
    _status._terminal = _status in (
        TaskStatus.COMPLETED,
        TaskStatus.CANCELLED,
        TaskStatus.MISSED,
    )


class DropStage(enum.Enum):
    """Where a MISSED task was when its deadline expired."""

    MACHINE_QUEUE = "machine_queue"
    EXECUTING = "executing"
    IN_TRANSIT = "in_transit"      # communication extension


@dataclass(slots=True, eq=False)
class Task:
    """One request for an application (task type).

    Mutable simulation entity; identity-hashed. The timestamps fill in as the
    task moves through the system and feed the Task/Full reports.
    """

    id: int
    task_type: TaskType
    arrival_time: float
    deadline: float
    status: TaskStatus = TaskStatus.CREATED
    machine: "Machine | None" = None
    assigned_time: float | None = None
    start_time: float | None = None
    completion_time: float | None = None
    missed_time: float | None = None
    cancelled_time: float | None = None
    drop_stage: DropStage | None = None
    execution_time: float | None = None    # realised (possibly noisy) runtime
    energy: float | None = None            # Joules attributed to this task
    available_at: float | None = None      # delivery time under the network model
    retries: int = 0                       # times requeued after machine failures
    origin_cluster: int | None = None      # federation: shard the task arrived at
    cluster: int | None = None             # federation: shard currently owning it
    migrations: int = 0                    # federation: mid-queue cross-cluster moves
    extras: tuple[tuple[str, str], ...] = ()  # passthrough trace columns (name, raw value)

    def __post_init__(self) -> None:
        if self.id < 0:
            raise WorkloadError(f"task id must be >= 0, got {self.id}")
        if not math.isfinite(self.arrival_time) or self.arrival_time < 0:
            raise WorkloadError(
                f"task {self.id}: arrival_time must be finite and >= 0, "
                f"got {self.arrival_time}"
            )
        if not math.isfinite(self.deadline) and self.deadline != math.inf:
            raise WorkloadError(
                f"task {self.id}: deadline must be finite or +inf, got {self.deadline}"
            )
        if self.deadline < self.arrival_time:
            raise WorkloadError(
                f"task {self.id}: deadline {self.deadline} precedes arrival "
                f"{self.arrival_time}"
            )

    # -- lifecycle transitions -------------------------------------------------

    def enqueue_batch(self) -> None:
        if self.status is not TaskStatus.CREATED:
            self._expect(TaskStatus.CREATED)
        self.status = TaskStatus.IN_BATCH_QUEUE

    def assign(self, machine: "Machine", now: float) -> None:
        status = self.status
        if status is not TaskStatus.IN_BATCH_QUEUE and status is not TaskStatus.CREATED:
            self._expect(TaskStatus.IN_BATCH_QUEUE, TaskStatus.CREATED)
        self.status = TaskStatus.ASSIGNED
        self.machine = machine
        self.assigned_time = now

    def start(self, now: float) -> None:
        if self.status is not TaskStatus.ASSIGNED:
            self._expect(TaskStatus.ASSIGNED)
        self.status = TaskStatus.RUNNING
        self.start_time = now

    def complete(self, now: float) -> None:
        if self.status is not TaskStatus.RUNNING:
            self._expect(TaskStatus.RUNNING)
        self.status = TaskStatus.COMPLETED
        self.completion_time = now

    def cancel(self, now: float) -> None:
        self._expect(TaskStatus.IN_BATCH_QUEUE, TaskStatus.CREATED)
        self.status = TaskStatus.CANCELLED
        self.cancelled_time = now

    def miss(self, now: float, stage: DropStage) -> None:
        self._expect(TaskStatus.ASSIGNED, TaskStatus.RUNNING)
        self.status = TaskStatus.MISSED
        self.missed_time = now
        self.drop_stage = stage

    def evict_for_migration(self, now: float) -> None:
        """Pull the task out of a batch queue for a cross-cluster migration.

        Returns the task to ``CREATED`` — the same state an offloaded task
        holds while crossing the WAN — so the in-flight deadline handling
        (cancel, exact link accounting) applies unchanged, and re-arrival at
        the destination runs the ordinary ``enqueue_batch`` transition. The
        deadline is untouched: time spent queued at the source is lost.
        """
        self._expect(TaskStatus.IN_BATCH_QUEUE)
        self.status = TaskStatus.CREATED
        self.migrations += 1

    def requeue(self, now: float) -> None:
        """Return the task to the batch queue after a machine failure.

        Valid from ASSIGNED (queued / in transit) or RUNNING; clears the
        placement so the task competes again on the next scheduling pass.
        Its deadline is unchanged — lost progress is lost.
        """
        self._expect(TaskStatus.ASSIGNED, TaskStatus.RUNNING)
        self.status = TaskStatus.IN_BATCH_QUEUE
        self.machine = None
        self.assigned_time = None
        self.start_time = None
        self.execution_time = None
        self.available_at = None
        self.retries += 1

    def _expect(self, *allowed: TaskStatus) -> None:
        if self.status not in allowed:
            raise SimulationStateError(
                f"task {self.id}: illegal transition from {self.status.name} "
                f"(expected one of {[s.name for s in allowed]})"
            )

    # -- derived quantities ----------------------------------------------------

    @property
    def on_time(self) -> bool:
        """True iff the task completed no later than its deadline."""
        return (
            self.status is TaskStatus.COMPLETED
            and self.completion_time is not None
            and self.completion_time <= self.deadline
        )

    @property
    def wait_time(self) -> float | None:
        """Batch-queue + machine-queue waiting before execution began."""
        if self.start_time is None:
            return None
        return self.start_time - self.arrival_time

    @property
    def response_time(self) -> float | None:
        """Arrival-to-completion latency (None unless completed)."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.arrival_time

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Task(id={self.id}, type={self.task_type.name}, "
            f"arrival={self.arrival_time:.6g}, deadline={self.deadline:.6g}, "
            f"status={self.status.name})"
        )
