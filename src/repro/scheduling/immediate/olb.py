"""Opportunistic Load Balancing (OLB) — classic baseline from [13].

Maps each task to the machine expected to become *ready* soonest, without
consulting EETs. Identical machine choice to our FCFS; kept as a separate
registry entry because the literature distinguishes OLB (machine choice) from
FCFS (task ordering), and because side-by-side runs of FCFS/OLB are a useful
sanity check that both implementations agree.
"""

from __future__ import annotations

from ...machines.machine import Machine
from ...tasks.task import Task
from ..base import ImmediateScheduler
from ..context import SchedulingContext
from ..registry import register_scheduler

__all__ = ["OLBScheduler"]


@register_scheduler
class OLBScheduler(ImmediateScheduler):
    """Earliest-ready machine, EET-blind."""

    name = "OLB"
    description = (
        "Opportunistic Load Balancing: earliest-ready machine, ignoring EETs."
    )

    def choose_machine(self, task: Task, ctx: SchedulingContext) -> Machine:
        cluster = ctx.cluster
        return cluster.machines[cluster.argmin_ready(ctx.now)]
