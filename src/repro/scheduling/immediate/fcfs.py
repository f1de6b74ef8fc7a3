"""FirstCome-FirstServe (FCFS) — paper policy.

Tasks are mapped in arrival order; each goes to the machine that becomes
ready soonest (load-only choice — FCFS is blind to execution-time
heterogeneity, which is exactly why MECT outperforms it on heterogeneous
systems, the §4 learning outcome). Ties break toward the lowest machine id.
"""

from __future__ import annotations

from ...machines.machine import Machine
from ...tasks.task import Task
from ..base import ImmediateScheduler
from ..context import SchedulingContext
from ..registry import register_scheduler

__all__ = ["FCFSScheduler"]


@register_scheduler(aliases=("FIRSTCOME-FIRSTSERVE",))
class FCFSScheduler(ImmediateScheduler):
    """Earliest-ready machine for the task at the head of the queue."""

    name = "FCFS"
    description = (
        "FirstCome-FirstServe: arriving task goes to the machine that "
        "becomes ready soonest (EET-blind)."
    )

    def choose_machine(self, task: Task, ctx: SchedulingContext) -> Machine:
        cluster = ctx.cluster
        return cluster.machines[cluster.argmin_ready(ctx.now)]
