"""Workload container: an ordered collection of tasks plus its task types.

A :class:`Workload` owns the task-type list (the EET row space) and the tasks
themselves, sorted by arrival time. It validates EET compatibility — the
paper's rule that "there can be no task type within the workload that is not
defined within the EET" — and offers summary statistics used by reports and
the intensity calibrator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from ..core.errors import IncompatibleWorkloadError, WorkloadError
from .task import Task
from .task_type import TaskType

if TYPE_CHECKING:  # pragma: no cover
    from ..machines.eet import EETMatrix

__all__ = ["Workload"]


@dataclass
class Workload:
    """A sorted batch of tasks over a fixed task-type universe."""

    task_types: list[TaskType]
    tasks: list[Task] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [t.name for t in self.task_types]
        if len(set(names)) != len(names):
            raise WorkloadError(f"duplicate task type names: {names}")
        indices = sorted(t.index for t in self.task_types)
        if indices != list(range(len(self.task_types))):
            raise WorkloadError(
                f"task type indices must be 0..n-1 without gaps, got {indices}"
            )
        self._by_name = {t.name: t for t in self.task_types}
        self.tasks = sorted(self.tasks, key=attrgetter("arrival_time", "id"))
        ids = [t.id for t in self.tasks]
        if len(set(ids)) != len(ids):
            raise WorkloadError("duplicate task ids in workload")
        unknown = {
            t.task_type.name for t in self.tasks if t.task_type.name not in self._by_name
        }
        if unknown:
            raise IncompatibleWorkloadError(
                f"tasks reference undefined task types: {sorted(unknown)}"
            )

    # -- container protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)

    def __getitem__(self, i: int) -> Task:
        return self.tasks[i]

    # -- validation / utilities --------------------------------------------------

    def validate_against_eet(self, eet: "EETMatrix") -> None:
        """Raise IncompatibleWorkloadError unless all types exist in *eet*.

        Enforces the Fig-2 rule: "EET and Workload files must be compatible".
        """
        missing = [
            t.name for t in self.task_types if not eet.has_task_type(t.name)
        ]
        if missing:
            raise IncompatibleWorkloadError(
                f"EET matrix does not define task types {missing}; "
                f"it defines {eet.task_type_names}"
            )

    def fresh_copy(self) -> "Workload":
        """Deep-copy tasks into pristine (CREATED) state for a re-run.

        The simulator mutates tasks; Reset (the GUI button) needs a clean
        workload to replay the same trace.
        """
        clones = [
            Task(
                id=t.id,
                task_type=t.task_type,
                arrival_time=t.arrival_time,
                deadline=t.deadline,
                extras=t.extras,
            )
            for t in self.tasks
        ]
        return Workload(task_types=list(self.task_types), tasks=clones)

    @classmethod
    def from_arrays(
        cls,
        task_types: list[TaskType],
        type_indices: Iterable[int],
        arrival_times: Iterable[float],
        deadlines: Iterable[float],
        *,
        id_offset: int = 0,
    ) -> "Workload":
        """Vectorised constructor from parallel arrays."""
        type_idx = np.asarray(list(type_indices), dtype=int)
        arrivals = np.asarray(list(arrival_times), dtype=float)
        dls = np.asarray(list(deadlines), dtype=float)
        if not (type_idx.shape == arrivals.shape == dls.shape):
            raise WorkloadError("from_arrays: arrays must have identical length")
        if type_idx.size and (type_idx.min() < 0 or type_idx.max() >= len(task_types)):
            raise WorkloadError("from_arrays: task type index out of range")
        order = np.argsort(arrivals, kind="stable")
        # Python ints and floats, one .tolist() per column in arrival order;
        # the column lists are freed with the comprehension, before the sort.
        tasks = [
            Task(
                id=id_offset + rank,
                task_type=task_types[index],
                arrival_time=arrival,
                deadline=deadline,
            )
            for rank, (index, arrival, deadline) in enumerate(
                zip(
                    type_idx[order].tolist(),
                    arrivals[order].tolist(),
                    dls[order].tolist(),
                )
            )
        ]
        return cls(task_types=task_types, tasks=tasks)
