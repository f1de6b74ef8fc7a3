"""Scheduler framework: policy base classes and the mapping loop.

Two policy families mirror the paper's scheduler component (Fig. 3):

* **Immediate** — the arriving task is mapped on the spot; machine queues are
  unbounded. Subclass :class:`ImmediateScheduler`, implement
  :meth:`ImmediateScheduler.choose_machine`.
* **Batch** — tasks buffer in the batch queue; mapping happens in passes over
  the whole buffer, respecting bounded machine queues. Subclass
  :class:`BatchScheduler` and implement :meth:`BatchScheduler.select_pair`;
  the base class runs the standard two-phase mapping loop (recompute the
  completion-time matrix, let the policy pick one (task, machine) pair, apply
  it virtually, repeat) shared by Min-Min/Max-Min/Sufferage/MSD/MMU/ELARE.

  The matrix pass (NumPy) is every batch policy's reference. A pass of
  at most 128 cells runs on Python lists instead when the policy defines a
  ``select_pair_scalar`` twin of its ``select_pair``
  (:func:`has_list_twin`), with the same pairs in the same order; MM, MSD,
  ELARE and FELARE have the twin, every other policy keeps the matrix
  pass. A policy whose one-task pass reduces to one ``Cluster`` query
  (``singleton_argmin``, ``singleton_energy``; :func:`one_task_query`)
  lets the engine place an arrival that finds the batch queue empty with
  that query, skipping the pass (``ClusterCore._on_arrival``).

E2C is "designed to be modular, hence providing the ability ... to modify the
existing scheduling methods or add their own custom-designed scheduling
methods" (§3) — that is the :mod:`repro.scheduling.registry` plus these ABCs.
"""

from __future__ import annotations

import abc
import enum
import functools
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from ..core.errors import SchedulingError
from ..machines.machine import Machine
from ..tasks.task import Task
from .context import SchedulingContext

__all__ = [
    "SchedulingMode",
    "Assignment",
    "Scheduler",
    "ImmediateScheduler",
    "BatchScheduler",
    "has_list_twin",
    "one_task_query",
]


#: Largest pass (pending tasks x machines) the list pass takes. Past it the
#: matrix pass is as fast for MM, the policy whose NumPy ``select_pair`` is
#: cheapest; BENCH_20.json holds the timings of both passes.
_LIST_PASS_CELLS = 128


class SchedulingMode(enum.Enum):
    """Immediate vs batch scheduling (Maheswaran et al. 1999 taxonomy)."""

    IMMEDIATE = "immediate"
    BATCH = "batch"


@dataclass(frozen=True, slots=True)
class Assignment:
    """One mapping decision: put *task* on *machine*'s queue."""

    task: Task
    machine: Machine


class Scheduler(abc.ABC):
    """Common interface of every scheduling policy."""

    #: Registry name (e.g. "MECT"); set by subclasses.
    name: ClassVar[str] = ""
    #: Mode this policy operates in.
    mode: ClassVar[SchedulingMode]
    #: Short human-readable description for the CLI / docs.
    description: ClassVar[str] = ""

    @abc.abstractmethod
    def schedule(self, ctx: SchedulingContext) -> list[Assignment]:
        """Return mapping decisions for the current context.

        Implementations must not mutate tasks or machines; the simulator
        applies the returned assignments (and validates capacity).
        """

    def reset(self) -> None:
        """Clear any internal state (between simulation runs)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, mode={self.mode.value})"


class ImmediateScheduler(Scheduler):
    """Maps each arriving task immediately (queues unbounded)."""

    mode = SchedulingMode.IMMEDIATE

    def schedule(self, ctx: SchedulingContext) -> list[Assignment]:
        assignments: list[Assignment] = []
        for task in ctx.pending:
            machine = self.choose_machine(task, ctx)
            if machine is None:
                raise SchedulingError(
                    f"{self.name}: immediate policy returned no machine for "
                    f"task {task.id}"
                )
            assignments.append(Assignment(task, machine))
        return assignments

    @abc.abstractmethod
    def choose_machine(self, task: Task, ctx: SchedulingContext) -> Machine:
        """Pick the machine for one arriving task."""


class BatchScheduler(Scheduler):
    """Two-phase mapping loop over the batch-queue snapshot.

    Every iteration the policy sees the *current* completion-time matrix
    ``completion`` of shape (n_pending, n_machines), where saturated machines
    and already-mapped tasks are masked with +inf, and returns the (i, j)
    index pair to map next (or None to stop early). The base class maintains
    virtual ready times and free slots so one pass produces a consistent
    multi-task mapping, exactly like the classic Min-Min formulation.
    """

    mode = SchedulingMode.BATCH
    #: Opt-in to the one-task arrival shortcut. Set it only when, given a
    #: single-row completion matrix, :meth:`select_pair` always returns the
    #: first minimum of that row (None when it is all +inf); an arrival
    #: that finds the batch queue empty is then placed on the machine
    #: :meth:`Cluster.argmin_open_completion` names, without a pass. Off by
    #: default, so user-plugged policies always see a pass; it counts only
    #: where :func:`one_task_query` says so.
    singleton_argmin: ClassVar[bool] = False
    #: The energy twin of ``singleton_argmin``: set it only when, given a
    #: single-row completion matrix, :meth:`select_pair` always returns the
    #: first least-energy deadline-feasible machine, or else the first
    #: minimum of the row; the shortcut then asks
    #: :meth:`Cluster.argmin_open_energy` for that machine. Off by default.
    singleton_energy: ClassVar[bool] = False

    def schedule(self, ctx: SchedulingContext) -> list[Assignment]:
        pending = list(ctx.pending)
        if has_list_twin(type(self)):
            assignments = self._scalar_pass(pending, ctx)
            if assignments is not None:
                return assignments
        return self._matrix_pass(pending, ctx)

    def _matrix_pass(
        self, tasks: list[Task], ctx: SchedulingContext
    ) -> list[Assignment]:
        """The matrix pass over *tasks* (every policy's reference path)."""
        if not tasks or max(ctx.cluster.state.slots) <= 0:
            # Every machine queue is saturated (or down): no pick is legal,
            # so skip building the planning matrices entirely — the dominant
            # pass shape under bounded queues with a backed-up batch queue.
            return []
        slots = ctx.free_slots()
        machines = ctx.cluster.machines
        ready = ctx.ready_times().astype(float)  # astype always copies
        eet = ctx.eet_matrix_for(tasks)  # (T, M); fresh gather, safe to mark
        alive = np.ones(len(tasks), dtype=bool)
        assignments: list[Assignment] = []

        # The completion matrix is maintained incrementally: a pick dirties
        # exactly one column (the chosen machine's ready time advanced) and
        # one row (the chosen task left the pool). Recomputing only those —
        # with the same ``ready[j] + eet[·, j]`` arithmetic the full rebuild
        # performed — yields bit-identical cells, so every policy makes the
        # same sequence of picks as under the per-iteration rebuild.
        completion = ready[None, :] + eet
        completion[:, slots <= 0] = np.inf
        while True:
            pick = self.select_pair(tasks, completion, alive, ctx)
            if pick is None:
                break
            i, j = pick
            if not alive[i]:
                raise SchedulingError(
                    f"{self.name}: selected already-mapped task index {i}"
                )
            if slots[j] <= 0:
                raise SchedulingError(
                    f"{self.name}: selected saturated machine index {j}"
                )
            assignments.append(Assignment(tasks[i], machines[j]))
            ready[j] += eet[i, j]
            slots[j] -= 1
            alive[i] = False
            if not alive.any() or not (slots > 0).any():
                break
            completion[i, :] = np.inf
            # Dead rows must stay +inf through later column refreshes.
            eet[i, :] = np.inf
            if slots[j] > 0:
                completion[:, j] = ready[j] + eet[:, j]
            else:
                completion[:, j] = np.inf
        return assignments

    def _scalar_pass(
        self, tasks: list[Task], ctx: SchedulingContext
    ) -> list[Assignment] | None:
        """The matrix pass on Python lists, for small passes.

        The same cells by the same IEEE operations in the same order as
        :meth:`_matrix_pass` (``Cluster.ready_list``, then
        ``ready[j] + eet[i][j]``), the same one-column refresh per pick and
        the same checks, with the policy's ``select_pair_scalar`` choosing.
        ``None`` when the pass has more than ``_LIST_PASS_CELLS`` cells:
        the matrix pass takes those.
        """
        cluster = ctx.cluster
        if len(tasks) * len(cluster.machines) > _LIST_PASS_CELLS:
            return None
        if not tasks or max(cluster.state.slots) <= 0:
            return []
        eet = cluster.scalar_eet_rows(tasks)
        slots = list(cluster.state.slots)
        ready = cluster.ready_list(ctx.now)
        n_machines = len(ready)
        inf = float("inf")
        closed = [inf] * n_machines
        open_ready = [(j, ready[j]) for j, s in enumerate(slots) if s > 0]
        completion = []
        for eet_row in eet:
            row = closed[:]
            for j, ready_j in open_ready:
                row[j] = ready_j + eet_row[j]
            completion.append(row)
        alive = [True] * len(tasks)
        n_alive = len(tasks)
        machines = cluster.machines
        assignments: list[Assignment] = []
        while True:
            pick = self.select_pair_scalar(tasks, completion, alive, ctx)
            if pick is None:
                break
            i, j = pick
            if not alive[i]:
                raise SchedulingError(
                    f"{self.name}: selected already-mapped task index {i}"
                )
            if slots[j] <= 0:
                raise SchedulingError(
                    f"{self.name}: selected saturated machine index {j}"
                )
            assignments.append(Assignment(tasks[i], machines[j]))
            ready[j] += eet[i][j]
            slots[j] -= 1
            alive[i] = False
            n_alive -= 1
            if not n_alive or max(slots) <= 0:
                break
            completion[i] = closed[:]
            if slots[j] > 0:
                ready_j = ready[j]
                for row, eet_row, live in zip(completion, eet, alive):
                    if live:
                        row[j] = ready_j + eet_row[j]
            else:
                for row in completion:
                    row[j] = inf
        return assignments

    @abc.abstractmethod
    def select_pair(
        self,
        tasks: Sequence[Task],
        completion: np.ndarray,
        alive: np.ndarray,
        ctx: SchedulingContext,
    ) -> tuple[int, int] | None:
        """Choose the next (task index, machine index) pair, or None to stop.

        ``completion[i, j]`` is +inf when task *i* is already mapped or
        machine *j* is saturated; a policy returning a pair must pick a
        finite cell.
        """


def _speaks_for_select_pair(cls: type, name: str) -> bool:
    """Whether *cls* takes *name* from the class defining its ``select_pair``
    or from a subclass of it (not from above an overriding ``select_pair``).
    """
    def owner(attr):
        return next((c for c in cls.__mro__ if attr in vars(c)), None)

    defined = owner(name)
    return defined is not None and issubclass(defined, owner("select_pair"))


@functools.cache
def has_list_twin(cls: type) -> bool:
    """Whether batch policy *cls* maps multi-task passes on lists.

    A policy opts in to the list pass by defining ``select_pair_scalar``:
    given the matrix pass's cells as one list of Python floats per task
    (and ``alive`` as a list of bools), it must return exactly the pair
    its ``select_pair`` returns on the matrix, first-minimum tie-breaks
    included. The twin counts only when it is defined in the class that
    defines ``select_pair`` or below it, so a subclass that overrides
    ``select_pair`` alone keeps the matrix pass: the twin it inherits
    answers for its parent's ``select_pair``, not its own.
    """
    return _speaks_for_select_pair(cls, "select_pair_scalar")


@functools.cache
def one_task_query(cls: type) -> str | None:
    """The ``Cluster`` method that picks what a one-task pass of *cls* picks, or None.

    ``singleton_argmin`` maps to ``argmin_open_completion`` and
    ``singleton_energy`` to ``argmin_open_energy``. By the rule of
    :func:`has_list_twin`, a flag counts only when the class that sets it
    defines ``select_pair`` or is a subclass of the class that does.
    """
    if cls.singleton_argmin and _speaks_for_select_pair(cls, "singleton_argmin"):
        return "argmin_open_completion"
    if cls.singleton_energy and _speaks_for_select_pair(cls, "singleton_energy"):
        return "argmin_open_energy"
    return None


def argmin_2d(matrix: np.ndarray) -> tuple[int, int] | None:
    """Index of the smallest finite cell, ties broken row-major. None if all inf."""
    flat = int(np.argmin(matrix))
    i, j = divmod(flat, matrix.shape[1])
    if not np.isfinite(matrix[i, j]):
        return None
    return i, j


def argmin_2d_scalar(rows: list[list[float]]) -> tuple[int, int] | None:
    """:func:`argmin_2d` on a list of rows of Python floats."""
    best = float("inf")
    pick = None
    for i, row in enumerate(rows):
        low = min(row)
        if low < best:
            best = low
            pick = i, row.index(low)
    return pick
