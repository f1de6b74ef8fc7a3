"""ELARE — Energy- and Latency-Aware Resource allocation (paper policy).

The paper lists ELARE among E2C's batch policies; its definition lives in the
authors' FELARE paper [15], which we approximate as documented in
docs/POLICIES.md §6:

* Phase 1 (latency feasibility): for each unmapped task, restrict to the
  (task, machine) pairs whose expected completion time meets the deadline.
* Phase 2 (energy): among all feasible pairs, map the one with the smallest
  *dynamic* energy cost, ``active_watts(machine, type) × EET`` — the Joules
  actually attributable to running this task here (``Cluster.energy_table``).
* Fallback: if no pair is deadline-feasible, degrade gracefully to Min-Min
  (smallest completion time) so the system keeps draining.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...tasks.task import Task
from ..base import BatchScheduler, argmin_2d, argmin_2d_scalar
from ..context import SchedulingContext
from ..registry import register_scheduler

__all__ = ["ELAREScheduler"]


@register_scheduler
class ELAREScheduler(BatchScheduler):
    """Min-energy among deadline-feasible pairs; Min-Min fallback."""

    name = "ELARE"
    description = (
        "Energy- and Latency-Aware: cheapest-energy mapping among "
        "deadline-feasible (task, machine) pairs, Min-Min fallback."
    )
    singleton_energy = True

    def select_pair(
        self,
        tasks: Sequence[Task],
        completion: np.ndarray,
        alive: np.ndarray,
        ctx: SchedulingContext,
    ) -> tuple[int, int] | None:
        deadlines = ctx.deadlines(tasks)[:, None]
        feasible = np.isfinite(completion) & (completion <= deadlines)
        if feasible.any():
            energy = ctx.cluster.energy_rows(tasks)
            scored = np.where(feasible, energy, np.inf)
            return argmin_2d(scored)
        return argmin_2d(completion)

    def select_pair_scalar(
        self,
        tasks: Sequence[Task],
        completion: list[list[float]],
        alive: list[bool],
        ctx: SchedulingContext,
    ) -> tuple[int, int] | None:
        inf = float("inf")
        energy = None
        least = inf
        pick = None
        for i, row in enumerate(completion):
            deadline = tasks[i].deadline
            for j, c in enumerate(row):
                if c <= deadline and c < inf:
                    if energy is None:
                        # Built only once a pair is feasible, as in select_pair.
                        energy = ctx.cluster.scalar_energy_rows(tasks)
                    if energy[i][j] < least:
                        least = energy[i][j]
                        pick = i, j
        if energy is not None:
            return pick
        return argmin_2d_scalar(completion)
