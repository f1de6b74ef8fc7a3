"""Task types — the "applications" of the simulated system.

The paper (§3): "A workload is defined as a large group of tasks where each
task is a request for an application (task type)" — e.g. object detection,
noise removal, image enhancement on a satellite-imaging system. A task type
carries everything shared by its requests: a display name, a stable index into
the EET matrix rows, deadline parameters and optional resource footprints used
by the network/memory extensions.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.fields import integer, real, text

__all__ = ["TaskType"]


@dataclass(frozen=True, slots=True)
class TaskType:
    """An application class whose requests form the workload.

    Attributes
    ----------
    name:
        Human-readable identifier, e.g. ``"T1"`` or ``"object_detection"``.
        Must be unique within a scenario; used in CSV traces and reports.
    index:
        Row index of this type in the EET matrix.
    relative_deadline:
        Deadline offset added to each task's arrival time, in simulated
        seconds. ``None`` means tasks of this type get it derived from the
        EET matrix by the workload generator (``slack_factor`` model).
    data_in / data_out:
        Input/output payload sizes in MB; only used when the communication
        extension is enabled (transfer delay = latency + size/bandwidth).
    memory:
        Resident memory footprint in MB; only used when the memory extension
        is enabled.
    """

    name: str
    index: int
    relative_deadline: float | None = None
    data_in: float = 0.0
    data_out: float = 0.0
    memory: float = 0.0

    def __post_init__(self) -> None:
        path = f"task type {text(self.name, 'task type name')!r}"
        integer(self.index, f"{path}.index")
        if self.relative_deadline is not None:
            real(self.relative_deadline, f"{path}.relative_deadline", above=0)
        for attr in ("data_in", "data_out", "memory"):
            real(getattr(self, attr), f"{path}.{attr}", lo=0)

    def __str__(self) -> str:
        return self.name
