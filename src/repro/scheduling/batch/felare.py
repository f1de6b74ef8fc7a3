"""FELARE — Fair, Energy- and Latency-Aware Resource allocation (paper policy).

FELARE (the authors' IEEE Cloud '22 paper [15]) extends ELARE with *fairness
across task types*: without it, energy/latency-greedy mapping systematically
starves task types that are expensive everywhere. Our documented
approximation (docs/POLICIES.md §6):

* Track each task type's historical on-time completion rate (live stats fed
  by the simulator).
* Phase 1: restrict to deadline-feasible pairs (as ELARE).
* Phase 2: among tasks owning at least one feasible pair, serve the task
  whose type has the *lowest* success rate so far (fairness pressure); break
  rate ties toward the task with the least slack.
* Phase 3: map that task to its minimum-energy feasible machine.
* Fallback: Min-Min when nothing is feasible.

The fairness effect is measured in the E-X3 ablation with Jain's index over
per-type completion rates.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...tasks.task import Task
from ..base import BatchScheduler, argmin_2d, argmin_2d_scalar
from ..context import SchedulingContext
from ..registry import register_scheduler

__all__ = ["FELAREScheduler"]


@register_scheduler
class FELAREScheduler(BatchScheduler):
    """ELARE + fairness pressure toward historically-starved task types."""

    name = "FELARE"
    description = (
        "Fair ELARE: serve the task type with the lowest on-time rate first, "
        "on its cheapest-energy deadline-feasible machine."
    )
    singleton_energy = True

    def select_pair(
        self,
        tasks: Sequence[Task],
        completion: np.ndarray,
        alive: np.ndarray,
        ctx: SchedulingContext,
    ) -> tuple[int, int] | None:
        deadlines = ctx.deadlines(tasks)
        feasible = np.isfinite(completion) & (completion <= deadlines[:, None])
        task_has_option = feasible.any(axis=1)
        if not task_has_option.any():
            return argmin_2d(completion)

        rates = np.array(
            [ctx.type_stats.success_rate(t.task_type.name) for t in tasks]
        )
        best = np.where(
            task_has_option,
            np.where(feasible, completion, np.inf).min(axis=1),
            np.inf,
        )
        # Lexicographic: lowest success rate, then least slack, then task order.
        order_key = np.where(task_has_option, rates, np.inf)
        candidates = np.flatnonzero(order_key == order_key.min())
        # Every candidate has an option, so its best completion is finite.
        slack = deadlines[candidates] - best[candidates]
        i = int(candidates[int(np.argmin(slack))])

        energy = ctx.cluster.energy_rows([tasks[i]])[0]
        scored = np.where(feasible[i], energy, np.inf)
        j = int(np.argmin(scored))
        return i, j

    def select_pair_scalar(
        self,
        tasks: Sequence[Task],
        completion: list[list[float]],
        alive: list[bool],
        ctx: SchedulingContext,
    ) -> tuple[int, int] | None:
        inf = float("inf")
        options = []  # (task index, best feasible completion)
        for i, row in enumerate(completion):
            deadline = tasks[i].deadline
            best = inf
            for c in row:
                if c <= deadline and c < best:
                    best = c
            if best < inf:
                options.append((i, best))
        if not options:
            return argmin_2d_scalar(completion)

        rate = ctx.type_stats.success_rate
        rates = [rate(tasks[i].task_type.name) for i, _ in options]
        lowest = min(rates)
        i = None
        for (k, best), r in zip(options, rates):
            if r == lowest:
                slack = tasks[k].deadline - best
                if i is None or slack < least_slack:
                    i, least_slack = k, slack

        deadline = tasks[i].deadline
        energy = ctx.cluster.scalar_energy_rows([tasks[i]])[0]
        least = inf
        for j, c in enumerate(completion[i]):
            if c <= deadline and c < inf and energy[j] < least:
                least = energy[j]
                pick = j
        return i, pick
