"""Scheduling context: the read view policies receive.

A policy never touches the simulator directly; it sees a
:class:`SchedulingContext` — current time, the pending tasks it may map, the
cluster (for ready/completion times), and live per-task-type outcome
statistics (used by fairness-aware policies such as FELARE).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..machines.cluster import Cluster
from ..tasks.task import Task

__all__ = ["SchedulingContext", "LiveTypeStats"]


class LiveTypeStats:
    """Running per-task-type outcome counts, updated by the metrics collector.

    ``success_rate(name)`` is the fraction of *finished* tasks of that type
    that completed on time; it returns 1.0 while no task of the type has
    finished (optimistic prior, so fairness pressure only builds on evidence).
    """

    def __init__(self) -> None:
        self._on_time: dict[str, int] = {}
        self._finished: dict[str, int] = {}

    def record(self, task_type_name: str, on_time: bool) -> None:
        self._finished[task_type_name] = self._finished.get(task_type_name, 0) + 1
        if on_time:
            self._on_time[task_type_name] = self._on_time.get(task_type_name, 0) + 1

    def success_rate(self, task_type_name: str) -> float:
        finished = self._finished.get(task_type_name, 0)
        if finished == 0:
            return 1.0
        return self._on_time.get(task_type_name, 0) / finished

    def finished(self, task_type_name: str) -> int:
        return self._finished.get(task_type_name, 0)

    def rates(self) -> dict[str, float]:
        return {name: self.success_rate(name) for name in self._finished}

    def reset(self) -> None:
        self._on_time.clear()
        self._finished.clear()


@dataclass
class SchedulingContext:
    """Everything a policy may consult when mapping tasks.

    The simulator reuses one context object across scheduling passes
    (``now`` and ``pending`` are updated in place between calls), so treat
    it as a read-only view valid only for the duration of the current
    ``schedule()`` call: copy anything you need to keep (e.g.
    ``list(ctx.pending)``) rather than retaining the context itself.

    Attributes
    ----------
    now:
        Current simulation time.
    pending:
        Tasks eligible for mapping, FIFO order. Immediate mode passes exactly
        the arriving task; batch mode passes the batch-queue snapshot (already
        swept of expired tasks).
    cluster:
        The machine population (ready times, EETs, queue slots).
    type_stats:
        Live per-type success statistics (for fairness-aware policies).
    rng:
        Seeded generator for stochastic policies (Random).
    """

    now: float
    pending: Sequence[Task]
    cluster: Cluster
    type_stats: LiveTypeStats = field(default_factory=LiveTypeStats)
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0)
    )

    # -- convenience views (vectorised, machine-axis aligned) -------------------

    def ready_times(self) -> np.ndarray:
        return self.cluster.ready_times(self.now)

    def eet_matrix_for(self, tasks: Sequence[Task]) -> np.ndarray:
        """(len(tasks), n_machines) EET matrix for the given tasks."""
        if not tasks:
            return np.empty((0, len(self.cluster)))
        return self.cluster.eet_rows(tasks)

    def free_slots(self) -> np.ndarray:
        """Free machine-queue slots per machine (inf when unbounded).

        A failed machine reports zero slots so batch mapping loops never plan
        onto it (its admission would reject the assignment anyway, silently
        wasting the task's turn in the pass).
        """
        return self.cluster.free_slots_snapshot()

    def deadlines(self, tasks: Sequence[Task]) -> np.ndarray:
        return np.array([t.deadline for t in tasks], dtype=float)
