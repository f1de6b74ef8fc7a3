"""MinCompletion-SoonestDeadline (MSD) — paper policy.

Phase 1: per-task best machine by minimum completion time. Phase 2: map the
task with the soonest absolute deadline first (classic EDF ordering lifted to
the batch-mapping setting). Ties break by task order, then machine id.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...tasks.task import Task
from ..base import BatchScheduler
from ..context import SchedulingContext
from ..registry import register_scheduler

__all__ = ["MSDScheduler"]


@register_scheduler(aliases=("MINCOMPLETION-SOONESTDEADLINE",))
class MSDScheduler(BatchScheduler):
    """Soonest-deadline task first, each on its min-completion machine."""

    name = "MSD"
    description = (
        "MinCompletion-SoonestDeadline: EDF task order, each task mapped to "
        "its minimum-completion-time machine."
    )

    # With one row the soonest deadline is row 0; its machine is the row's
    # first minimum.
    singleton_argmin = True

    def select_pair(
        self,
        tasks: Sequence[Task],
        completion: np.ndarray,
        alive: np.ndarray,
        ctx: SchedulingContext,
    ) -> tuple[int, int] | None:
        best = completion.min(axis=1)
        feasible = np.isfinite(best)
        if not feasible.any():
            return None
        deadlines = np.where(feasible, ctx.deadlines(tasks), np.inf)
        i = int(np.argmin(deadlines))
        if not feasible[i]:
            # Every feasible deadline is +inf: the first feasible task.
            i = int(np.argmax(feasible))
        j = int(np.argmin(completion[i]))
        return i, j

    def select_pair_scalar(
        self,
        tasks: Sequence[Task],
        completion: list[list[float]],
        alive: list[bool],
        ctx: SchedulingContext,
    ) -> tuple[int, int] | None:
        inf = float("inf")
        i = None
        for k, row in enumerate(completion):
            if min(row) < inf:
                deadline = tasks[k].deadline
                # The first feasible task wins deadline ties, +inf included.
                if i is None or deadline < soonest:
                    i, soonest = k, deadline
        if i is None:
            return None
        row = completion[i]
        return i, row.index(min(row))
