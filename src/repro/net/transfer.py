"""Data-transfer delay model (communication extension).

The paper's future work (§7) names "various communication paradigms". This
extension models the scheduler→machine links of the Fig-1 star topology:
assigning a task to a machine incurs a delivery delay

    delay = link_latency + data_in / link_bandwidth        (bandwidth > 0)
    delay = link_latency                                    (latency-only link)

during which the task occupies its machine-queue slot but cannot start
(``Task.available_at``). Delays use each machine type's link parameters and
each task type's input payload size.
"""

from __future__ import annotations

from ..machines.machine_type import MachineType
from ..tasks.task_type import TaskType

__all__ = ["transfer_delay"]


def transfer_delay(task_type: TaskType, machine_type: MachineType) -> float:
    """Seconds from mapping decision to the task being runnable on the machine."""
    delay = machine_type.network_latency
    if machine_type.network_bandwidth > 0 and task_type.data_in > 0:
        delay += task_type.data_in / machine_type.network_bandwidth
    return delay

