"""Memory admission model (multi-tenancy extension).

The paper cites its own Edge-MultiAI follow-up [22] which "extended E2C to
simulate the memory allocation policies of multi-tenant applications". The
admission model here: a machine type may declare a memory capacity (MB); a
task may be admitted to a machine's queue only if its type's resident
footprint fits beside the footprints of the queued + running tasks. Tasks
refused for memory stay in the batch queue and are retried on later
scheduling passes (the "wait" policy), mirroring how a memory-saturated edge
node defers new tenants.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..tasks.task import Task

if TYPE_CHECKING:  # pragma: no cover
    from ..machines.machine import Machine

__all__ = ["memory_in_use", "fits_in_memory"]


def memory_in_use(machine: "Machine") -> float:
    """MB held by the machine's queued + running tasks."""
    used = sum(t.task_type.memory for t in machine.queue)
    if machine.running is not None:
        used += machine.running.task_type.memory
    return used


def fits_in_memory(machine: "Machine", task: Task) -> bool:
    """True iff *task*'s footprint fits under the machine's capacity.

    Machines without a declared capacity (0) are unconstrained.
    """
    capacity = machine.machine_type.memory_capacity
    if capacity <= 0:
        return True
    return memory_in_use(machine) + task.task_type.memory <= capacity

