"""Batch queue — the arrival buffer of Fig. 1.

"The batch queue is where tasks are held before being scheduled." Immediate
policies see it drain one task per arrival; batch policies see the whole
buffer. The queue also performs the *cancellation sweep*: before each mapping
pass, tasks whose deadline has already passed are evicted as CANCELLED
("canceled because of missing its deadline before assignment", §3).
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from ..core.errors import SimulationStateError
from ..tasks.task import Task, TaskStatus

__all__ = ["BatchQueue"]


class BatchQueue:
    """FIFO arrival buffer with deadline sweeping."""

    def __init__(self) -> None:
        self._queue: deque[Task] = deque()

    def __len__(self) -> int:
        return len(self._queue)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._queue)

    @property
    def is_empty(self) -> bool:
        return not self._queue

    def push(self, task: Task) -> None:
        """Admit an arriving task (moves it to IN_BATCH_QUEUE)."""
        task.enqueue_batch()
        self._queue.append(task)

    def readmit(self, task: Task) -> None:
        """Re-admit a task already in IN_BATCH_QUEUE state (failure requeue)."""
        if task.status is not TaskStatus.IN_BATCH_QUEUE:
            raise SimulationStateError(
                f"task {task.id} cannot be readmitted in state {task.status.name}"
            )
        self._queue.append(task)

    def remove(self, task: Task) -> bool:
        """Remove a specific task (a mapping decision took it). False if absent."""
        try:
            self._queue.remove(task)
            return True
        except ValueError:
            return False

    def sweep_expired(self, now: float) -> list[Task]:
        """Evict and CANCEL all tasks whose deadline is <= now.

        A task whose deadline equals *now* can no longer complete on time
        (its execution would finish strictly after the deadline for any
        positive EET), so it is cancelled rather than mapped.
        """
        queue = self._queue
        for task in queue:
            if task.deadline <= now:
                break
        else:
            return []  # common case: nothing expired, no rebuild
        kept: deque[Task] = deque()
        cancelled: list[Task] = []
        for task in queue:
            if task.deadline <= now:
                task.cancel(now)
                cancelled.append(task)
            else:
                kept.append(task)
        self._queue = kept
        return cancelled

    def snapshot(self) -> list[Task]:
        """Current contents in FIFO order (copy)."""
        return list(self._queue)
