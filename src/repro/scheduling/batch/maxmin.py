"""Max-Min — classic batch baseline from [13].

Like Min-Min, but phase 2 picks the task whose *best* completion time is the
*largest* — the intuition being that long tasks should be placed early, while
short tasks can fill gaps later. A standard contrast case for Min-Min in
heterogeneous-scheduling coursework.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...tasks.task import Task
from ..base import BatchScheduler
from ..context import SchedulingContext
from ..registry import register_scheduler

__all__ = ["MaxMinScheduler"]


@register_scheduler(aliases=("MAX-MIN",))
class MaxMinScheduler(BatchScheduler):
    """Largest per-task minimum completion time first."""

    name = "MAXMIN"
    description = (
        "Max-Min: map the task whose best completion time is worst, so long "
        "tasks are placed before short ones."
    )

    # With one row the largest best completion is row 0; its machine is the
    # row's first minimum.
    singleton_argmin = True

    def select_pair(
        self,
        tasks: Sequence[Task],
        completion: np.ndarray,
        alive: np.ndarray,
        ctx: SchedulingContext,
    ) -> tuple[int, int] | None:
        row_best = completion.min(axis=1)          # best completion per task
        row_best_masked = np.where(np.isfinite(row_best), row_best, -np.inf)
        i = int(np.argmax(row_best_masked))
        if not np.isfinite(row_best_masked[i]):
            return None
        j = int(np.argmin(completion[i]))
        return i, j
